// acstab end-to-end benchmark program.
//
//   acstab_e2e --workload NAME --seed N --seconds S --trace 0|1
//              --workdir DIR --root CHECKOUT
//
// Runs one workload (README.md), prints a human-readable table on
// stderr and, as the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) of metrics.h, each as {"value": v, "unit": u}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "farm/json.h"
#include "metrics.h"
#include "workloads.h"

#ifndef BENCH_E2E_TOOL_PATH
#define BENCH_E2E_TOOL_PATH "acstab"
#endif
#ifndef BENCH_E2E_REPO_ROOT
#define BENCH_E2E_REPO_ROOT "."
#endif

namespace {

int usage()
{
    std::fputs("usage: acstab_e2e --workload NAME --seed N --seconds S --trace 0|1\n"
               "                  [--workdir DIR] [--root CHECKOUT]\n"
               "workloads: mesh-node mesh-all follower-farm mesh-step\n",
               stderr);
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    bench::run_options opt;
    opt.workdir = "bench_e2e_work";
    opt.root = BENCH_E2E_REPO_ROOT;
    opt.tool_path = BENCH_E2E_TOOL_PATH;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--workdir")
            opt.workdir = val;
        else if (key == "--root")
            opt.root = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || opt.workload.empty() || !(opt.seconds > 0.0))
        return usage();

    bench::run_result res;
    try {
        res = bench::run_workload(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "acstab_e2e: %s: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }

    using acstab::farm::json_value;
    json_value metrics = json_value::object();
    const auto emit = [&](const auto& defs) {
        for (const bench::metric_def& m : defs) {
            // A layer this workload does not run reads 0.
            const auto it = res.metrics.find(m.name);
            const double v = it == res.metrics.end() ? 0.0 : it->second;
            json_value entry = json_value::object();
            entry.set("value", json_value::number(v));
            entry.set("unit", json_value::str(m.unit));
            metrics.set(m.name, std::move(entry));
            std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name, v, m.unit);
        }
    };
    std::fprintf(stderr, "%s (seed %llu, %s)\n", opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.trace ? "traced" : "untraced");
    if (opt.trace)
        emit(bench::per_layer_metrics);
    else
        emit(bench::end_to_end_metrics);
    const double fail_ratio
        = res.attempted == 0 ? 1.0 : static_cast<double>(res.failed) / res.attempted;
    std::fprintf(stderr, "  %-28s %16.6g %s\n", "fail_ratio", fail_ratio, "ratio");

    json_value out = json_value::object();
    out.set("correct", json_value::boolean(res.failed == 0 && res.attempted > 0));
    out.set("attempted", json_value::number(res.attempted));
    out.set("failed", json_value::number(res.failed));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
