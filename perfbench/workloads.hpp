// The benchmark's workloads. Each fills `result` with its end-to-end
// metrics (untraced) or per-layer metrics (traced), its output checks, its
// deterministic work counters and an output digest.
#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

void run_paper_flow(const Args& args, Result& result);
void run_gate_timing(const Args& args, Result& result);
void run_serve_mix(const Args& args, Result& result);

/// Saturation sweep of the serve_mix traffic: one fresh server per rate,
/// each rate for `args.seconds`; prints one table row per rate.
void sweep_serve_mix(const Args& args, const std::vector<double>& rates);

/// Open-loop generator self-test against an in-benchmark responder that
/// stalls once; true when the stall shows in p99 from scheduled time.
bool selftest_loadgen();

}  // namespace perfbench
