// exareq_perfbench: runs one workload and prints its result document as one
// JSON line (see perfbench/schema.json). perfbench/run.py builds this binary
// and is the command to use; it adds the machine description and prints
// the summary line.
//
//   exareq_perfbench --workload campaign|refit|serve --seed N --seconds S
//                    --trace 0|1 --data DIR --scratch DIR --threads T
//   exareq_perfbench --generate --data DIR --apps-md docs/APPS.md --threads T
//   exareq_perfbench --setup-probe --workload W --data DIR --scratch DIR
//                    --threads T     (a child of an untraced run; see setup.cpp)
//
// Exit codes: 0 correct, 1 a correctness mismatch (the document lists it),
// 2 the run could not complete.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument '" + arg + "'");
    if (arg == "--generate" || arg == "--setup-probe") {
      flags[arg.substr(2)] = "1";
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("flag " + arg + " needs a value");
    }
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    perfbench::Options options;
    options.data_dir = required(flags, "data");
    options.threads = std::stoul(required(flags, "threads"));
    if (options.threads < 1) throw std::invalid_argument("--threads must be at least 1");
    if (flags.count("generate")) {
      return perfbench::generate_data(options.data_dir, required(flags, "apps-md"), options.threads);
    }
    options.workload = required(flags, "workload");
    options.scratch_dir = required(flags, "scratch");
    options.self_path = argv[0];
    if (flags.count("setup-probe")) return perfbench::run_setup_probe(options);
    options.seed = std::stoull(required(flags, "seed"));
    options.seconds = std::stod(required(flags, "seconds"));
    options.trace = std::stoi(required(flags, "trace"));
    if (options.seconds <= 0.0 || (options.trace != 0 && options.trace != 1)) {
      throw std::invalid_argument("--seconds must be positive and --trace 0 or 1");
    }

    perfbench::Result result;
    if (options.workload == "campaign") {
      perfbench::run_campaign_workload(options, result);
    } else if (options.workload == "refit") {
      perfbench::run_refit_workload(options, result);
    } else if (options.workload == "serve") {
      perfbench::run_serve_workload(options, result);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    result.info("hardware_concurrency", std::thread::hardware_concurrency());
    result.info("threads", static_cast<double>(options.threads));
#if defined(__clang__)
    result.info_text("compiler", "clang " __clang_version__);
#else
    result.info_text("compiler", "g++ " __VERSION__);
#endif
    result.info_text("build_type", PERFBENCH_BUILD_TYPE);
    std::cout << result.to_json(options.workload, options.seed, options.trace, options.seconds)
              << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "exareq_perfbench: " << error.what() << std::endl;
    return 2;
  }
}
