// setup_s: process start until the first timed operation, measured on child
// processes of this binary so that process start (loading, static
// initialisation) counts, and only the program-side set-up of the workload
// runs in the child: the benchmark's own references, digests and key space
// are prepared in the measuring process, untimed.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kSetupLaunches = 31;

/// Spawns one `--setup-probe` child and returns the seconds from the spawn
/// until the child reported its set-up done (both read the same monotonic
/// clock). The child's tear-down is waited for but not timed.
double one_launch(const Options& options) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  const std::vector<std::string> args = {
      options.self_path, "--setup-probe", "--workload", options.workload,
      "--data", options.data_dir, "--scratch", options.scratch_dir,
      "--threads", std::to_string(options.threads)};
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const std::int64_t spawned_ns = now_ns();
  pid_t pid = 0;
  const int spawn_error =
      ::posix_spawn(&pid, options.self_path.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (spawn_error != 0) {
    ::close(pipe_fds[0]);
    throw std::runtime_error("spawn " + options.self_path + ": " + std::strerror(spawn_error));
  }
  std::string output;
  char buffer[256];
  for (ssize_t n = 0; (n = ::read(pipe_fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    output.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || output.rfind("ready ", 0) != 0) {
    throw std::runtime_error("set-up probe of " + options.workload + " failed");
  }
  const std::int64_t ready_ns = std::stoll(output.substr(6));
  return 1e-9 * static_cast<double>(ready_ns - spawned_ns);
}

}  // namespace

void report_setup(const Options& options, Result& result) {
  std::vector<double> launches;
  for (int i = 0; i < kSetupLaunches; ++i) launches.push_back(one_launch(options));
  const Quartiles setup = quartiles(launches);
  result.metric("setup_s", setup.q2, "s",
                {{"q1", setup.q1}, {"q3", setup.q3}, {"n", static_cast<double>(launches.size())}});
}

int run_setup_probe(const Options& options) {
  const Ready ready = [] { std::cout << "ready " << now_ns() << std::endl; };
  if (options.workload == "campaign") {
    set_up_campaign_program(options, ready);
  } else if (options.workload == "refit") {
    set_up_refit_program(options, ready);
  } else if (options.workload == "serve") {
    set_up_serve_program(options, ready);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return 0;
}

}  // namespace perfbench
