// Layer probes every traced run makes, whatever the workload, so that each
// workload reports the same per-layer costs of simmpi, the app kernels and
// the serve codec beside the self times of its own pass.
#pragma once

#include "data.hpp"
#include "util.hpp"

namespace perfbench {

void run_probes(const Options& options, Result& result);

}  // namespace perfbench
