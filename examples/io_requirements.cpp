// I/O requirements example — the extension the paper sketches in Sec. II-A
// ("I/O would be handled analogously to the network communication
// requirement"): a checkpointing application whose I/O volume is measured
// per process and modeled over (p, n) exactly like any other requirement.
//
// The example app writes a checkpoint of its full state every few steps and
// additionally appends a fixed-size metadata record per process step; a
// restart read happens once at startup. Expected model:
//   bytes written ~ c1 * n + c2      (state + metadata)
//   bytes read    ~ c3 * n           (restart)
#include <cstdio>
#include <memory>
#include <vector>

#include "instr/process.hpp"
#include "model/modelgen.hpp"
#include "simmpi/runtime.hpp"
#include "support/format.hpp"

namespace {

using namespace exareq;

/// One rank of the checkpointing app.
void run_rank(simmpi::Communicator& comm, instr::ProcessInstrumentation& instr,
              std::int64_t n) {
  const auto cells = static_cast<std::size_t>(n);
  instr::TrackedBuffer<double> state(cells, instr.memory());

  // Restart read: the full state once.
  instr.count_io_read(state.bytes());

  constexpr int kSteps = 12;
  constexpr int kCheckpointEvery = 4;
  for (int step = 0; step < kSteps; ++step) {
    for (std::size_t c = 0; c < cells; ++c) {
      state[c] = state[c] * 0.5 + 1.0;
    }
    instr.count_flops(cells * 2);
    instr.count_loads(cells);
    instr.count_stores(cells);
    // Per-step metadata record (fixed size).
    instr.count_io_write(256);
    if ((step + 1) % kCheckpointEvery == 0) {
      instr.count_io_write(state.bytes());
    }
  }
  // Completion marker via the runtime so the job is a real parallel run.
  const std::vector<double> done{1.0};
  (void)comm.allreduce<double>(done, simmpi::ops::Sum{});
}

}  // namespace

int main() {
  // Measurement campaign over the usual 5x5 grid; I/O is collected from
  // the per-rank instrumentation like every other Table-I metric.
  model::MeasurementSet written({"p", "n"});
  model::MeasurementSet read({"p", "n"});
  for (int p : {4, 8, 16, 32, 64}) {
    for (std::int64_t n : {64, 128, 256, 512, 1024}) {
      std::vector<std::unique_ptr<instr::ProcessInstrumentation>> contexts;
      for (int r = 0; r < p; ++r) {
        contexts.push_back(std::make_unique<instr::ProcessInstrumentation>());
      }
      simmpi::run(p, [&contexts, n](simmpi::Communicator& comm) {
        run_rank(comm, *contexts[static_cast<std::size_t>(comm.rank())], n);
      });
      double max_written = 0.0;
      double max_read = 0.0;
      for (const auto& context : contexts) {
        const auto io = context->report().io;
        max_written = std::max(max_written, static_cast<double>(io.bytes_written));
        max_read = std::max(max_read, static_cast<double>(io.bytes_read));
      }
      written.add2(static_cast<double>(p), static_cast<double>(n), max_written);
      read.add2(static_cast<double>(p), static_cast<double>(n), max_read);
    }
  }

  const auto written_fit = model::generate(written);
  const auto read_fit = model::generate(read);
  std::printf("I/O requirement models (per process):\n");
  std::printf("  #Bytes written  %s   [%s]\n",
              written_fit.model.to_string().c_str(),
              written_fit.model.to_string_rounded().c_str());
  std::printf("  #Bytes read     %s   [%s]\n",
              read_fit.model.to_string().c_str(),
              read_fit.model.to_string_rounded().c_str());

  // Co-design use: what file-system bandwidth does a checkpoint interval
  // of 60 s require at exascale?
  const double p = 1e8;
  const double n = 1e7;
  const double bytes_per_interval = written_fit.model.evaluate2(p, n) / 3.0;
  std::printf(
      "\nAt p = 1e8, n = 1e7 each checkpoint writes %s per process;\n"
      "a 60 s checkpoint interval demands %s/s of aggregate file-system\n"
      "bandwidth — the same extrapolate-and-size workflow as Table VII,\n"
      "applied to I/O.\n",
      exareq::format_bytes(bytes_per_interval).c_str(),
      exareq::format_bytes(bytes_per_interval * p / 60.0).c_str());
  return 0;
}
