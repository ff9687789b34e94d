// Names and units of everything the benchmark reports. BENCHMARK.json at
// the repository root lists the same names; the self-test and run.py
// both hold the two in step.
#ifndef BENCH_E2E_METRICS_H
#define BENCH_E2E_METRICS_H

#include <array>

namespace bench {

struct metric_def {
    const char* name;
    const char* unit;
};

inline constexpr std::array<const char*, 4> workload_names{
    "mesh-node", "mesh-all", "follower-farm", "mesh-step"};

/// Reported by untraced runs (--trace 0).
inline constexpr std::array<metric_def, 4> end_to_end_metrics{{
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"points_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
}};

/// Reported by traced runs (--trace 1). A layer a workload does not run
/// reads 0; counts labelled "computed" come from the symbolic pattern,
/// not from timing.
inline constexpr std::array<metric_def, 36> per_layer_metrics{{
    {"spice.parse_ms", "ms"},
    {"spice.dc_ms", "ms"},
    {"spice.dc_newton_iters", "count"},
    {"engine.linearize_ms", "ms"},
    {"numeric.order_ms", "ms"},
    {"numeric.symbolic_ms", "ms"},
    {"numeric.lu_nnz", "count"},
    {"numeric.supernodes", "count"},
    {"engine.assemble_ms", "ms"},
    {"numeric.refactor_ms", "ms"},
    {"numeric.refactors", "count"},
    {"numeric.refactor_flops", "flop"},
    {"numeric.refactor_gflops", "GFLOP/s"},
    {"numeric.solve_ms", "ms"},
    {"numeric.solve_rhs", "count"},
    {"numeric.solve_flops", "flop"},
    {"engine.sweep_ms", "ms"},
    {"engine.cold_factors", "count"},
    {"core.plot_ms", "ms"},
    {"core.report_ms", "ms"},
    {"core.loops", "count"},
    {"spice.tran_ms", "ms"},
    {"spice.tran_solves", "count"},
    {"spice.tran_symbolic_builds", "count"},
    {"spice.tran_guard_rebuilds", "count"},
    {"farm.exec_ms", "ms"},
    {"farm.compute_ms", "ms"},
    {"farm.merge_ms", "ms"},
    {"farm.shard_bytes", "B"},
    {"farm.report_bytes", "B"},
    {"farm.point_gap_p95_ms", "ms"},
    {"farm.quarantined", "count"},
    {"farm.failed_points", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.replay_ratio", "ratio"},
}};

} // namespace bench

#endif // BENCH_E2E_METRICS_H
