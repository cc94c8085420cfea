// The three workloads. Each fills `result` with its end-to-end metrics
// (trace 0) or its per-layer metrics (trace 1) and records every
// correctness mismatch it finds.
#pragma once

#include <functional>

#include "data.hpp"
#include "util.hpp"

namespace perfbench {

void run_campaign_workload(const Options& options, Result& result);
void run_refit_workload(const Options& options, Result& result);
void run_serve_workload(const Options& options, Result& result);

/// setup_s of an untraced run: the median, over child processes of this
/// binary started with --setup-probe, of the time from spawning the child
/// until it has done the workload's program-side set-up and would start its
/// first timed operation.
void report_setup(const Options& options, Result& result);

/// The child side of setup_s; prints "ready <now_ns>" once set up.
int run_setup_probe(const Options& options);

/// The program-side set-up each workload does before its first timed
/// operation, and nothing the benchmark prepares for its own checks.
/// `ready` runs once it is done, before the set-up is torn down.
using Ready = std::function<void()>;
void set_up_campaign_program(const Options& options, const Ready& ready);
void set_up_refit_program(const Options& options, const Ready& ready);
void set_up_serve_program(const Options& options, const Ready& ready);

}  // namespace perfbench
