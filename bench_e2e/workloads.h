// The four benchmark workloads (see README.md for why each exists).
#ifndef BENCH_E2E_WORKLOADS_H
#define BENCH_E2E_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace bench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for generated inputs, farm state and the trace
    /// file (created if missing).
    std::string workdir;
    /// Checkout root: the shipped netlists live under <root>/netlists.
    std::string root;
    /// acstab binary the farm workload spawns as its workers.
    std::string tool_path;
};

struct run_result {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /// Metric name -> value; units come from metrics.h.
    std::map<std::string, double> metrics;
};

/// Run one workload for about opt.seconds (at least a few iterations),
/// checking every iteration. Throws on unknown workloads and on failures
/// outside the measured operations (input generation, oracles).
[[nodiscard]] run_result run_workload(const run_options& opt);

} // namespace bench

#endif // BENCH_E2E_WORKLOADS_H
