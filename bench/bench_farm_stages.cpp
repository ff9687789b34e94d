// Per-stage cost of one follower-farm point, the breakdown the
// end-to-end trace does not give: a `farm exec` worker rebuilds the
// circuit, solves the operating point, sweeps the stability plot's
// impedance, post-processes the plot and appends the record; the
// orchestrator indexes each record (merge scan) and finally emits the
// report. Every stage runs here in one process, serially, over the same
// campaign the bench_e2e follower-farm workload runs (follower.sp, node
// f_out, 1e5..1e10 Hz at 50 points per decade, 1000 temperatures in
// [-40, 125] C), each timed per point:
//
//   build_file  rebuild by reading and parsing the netlist file
//               (circuit_template{path, ""}: one file read per point)
//   build       rebuild from the text read once per template
//               (circuit_template::from_file, what the workers run)
//   dc          DC operating point (stability_analyzer::operating_point)
//   sweep       linearize + frequency_sweep of the injected node
//   plot        compute_stability_plot of the impedance magnitude
//   record      point_record JSON dump + durable shard append
//   merge_scan  stream_merge_index::advance over the record
//   emit        stream_merge_index::emit, per point
//
// `point` times point_runner::run + shard append end to end, so the
// worker stages (build .. record) can be checked to add up to it.
// Prints a table plus one ACSTAB_BENCH_JSON line in the BENCH_*.json row
// schema (phase = stage, ms = total over the points, count = points).
// --quick runs 100 points. This binary registers no google-benchmark
// cases.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/param_grid.h"
#include "core/stability_plot.h"
#include "engine/frequency_sweep.h"
#include "engine/linearized_snapshot.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/shard_store.h"

namespace {

using namespace acstab;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

farm::campaign_spec follower_campaign(std::size_t points)
{
    farm::campaign_spec spec;
    spec.netlist = std::string(ACSTAB_NETLIST_DIR) + "/follower.sp";
    spec.node = "f_out";
    spec.fstart = 1e5;
    spec.fstop = 1e10;
    spec.points_per_decade = 50;
    for (std::size_t i = 0; i < points; ++i)
        spec.grid.temps.push_back(-40.0 + 165.0 * (static_cast<real>(i) + 0.5)
                                              / static_cast<real>(points));
    return spec;
}

struct stage {
    const char* name;
    double ms = 0.0;
};

} // namespace

int main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    const std::size_t points = quick ? 100 : 1000;
    const farm::campaign_spec spec = follower_campaign(points);
    const core::stability_options opt = spec.stability_options(1);
    const std::vector<real> freqs = opt.sweep.frequencies();

    stage build_file{"build_file"}, build{"build"}, dc{"dc"}, sweep{"sweep"}, plot{"plot"},
        record{"record"}, merge_scan{"merge_scan"}, emit{"emit"}, point{"point"};

    const core::circuit_template per_point{spec.netlist, ""};
    const core::circuit_template once = core::circuit_template::from_file(spec.netlist);
    const std::string shard = "bench_farm_stages.jsonl";
    const std::string shard_point = "bench_farm_stages_point.jsonl";
    const std::string report = "bench_farm_stages_report.json";
    std::filesystem::remove(shard);
    std::filesystem::remove(shard_point);
    {
        farm::shard_writer writer(shard, spec, 0);
        const farm::point_runner runner(spec);
        for (std::size_t i = 0; i < points; ++i) {
            const core::grid_point pt = spec.grid.point(i);
            auto t0 = clock_type::now();
            (void)per_point.build(pt);
            build_file.ms += ms_since(t0);

            t0 = clock_type::now();
            spice::parsed_netlist net = once.build(pt);
            build.ms += ms_since(t0);

            core::stability_analyzer an(net.ckt, opt);
            t0 = clock_type::now();
            const std::vector<real>& op = an.operating_point();
            dc.ms += ms_since(t0);

            // What analyze_node runs after the operating point.
            t0 = clock_type::now();
            engine::snapshot_options sopt;
            sopt.gmin = opt.gmin;
            sopt.gshunt = opt.gshunt;
            sopt.zero_all_sources = true;
            const engine::linearized_snapshot snap(net.ckt, op, sopt);
            const std::size_t k = static_cast<std::size_t>(*net.ckt.find_node(spec.node));
            engine::sweep_policy policy;
            const engine::sweep_result res = engine::frequency_sweep(
                snap, freqs, std::vector<engine::sweep_engine::injection>{{k, cplx{1.0, 0.0}}},
                {{0, k}}, policy);
            sweep.ms += ms_since(t0);

            t0 = clock_type::now();
            std::vector<real> magnitude(res.freq_hz.size());
            for (std::size_t f = 0; f < magnitude.size(); ++f)
                magnitude[f] = std::abs(res.values[0][f]);
            (void)core::compute_stability_plot(res.freq_hz, magnitude, opt.plot);
            plot.ms += ms_since(t0);

            // The record itself comes from the product path; only its
            // dump + append is the record stage.
            const farm::point_record rec = runner.run(i);
            t0 = clock_type::now();
            writer.append(rec);
            record.ms += ms_since(t0);
        }
    }
    {
        farm::shard_writer writer(shard_point, spec, 0);
        const farm::point_runner runner(spec);
        for (std::size_t i = 0; i < points; ++i) {
            const auto t0 = clock_type::now();
            writer.append(runner.run(i));
            point.ms += ms_since(t0);
        }
    }
    {
        farm::stream_merge_index index(spec);
        const std::size_t s = index.add_stream(shard);
        for (std::size_t i = 0; i < points; ++i) {
            const auto t0 = clock_type::now();
            if (!index.advance(s, i)) {
                std::fprintf(stderr, "bench_farm_stages: record %zu missing\n", i);
                return 1;
            }
            merge_scan.ms += ms_since(t0);
        }
        index.finish();
        const auto t0 = clock_type::now();
        (void)index.emit({}, report);
        emit.ms += ms_since(t0);
    }
    std::filesystem::remove(shard);
    std::filesystem::remove(shard_point);
    std::filesystem::remove(report);

    const std::vector<stage> rows{build_file, build, dc,   sweep,      plot,
                                  record,     merge_scan, emit, point};
    const double n = static_cast<double>(points);
    std::puts("==============================================================================");
    std::printf("follower-farm point stages, %zu points, serial, us per point\n", points);
    std::puts("==============================================================================");
    for (const stage& s : rows)
        std::printf("%-12s %9.2f\n", s.name, 1e3 * s.ms / n);
    std::printf("%-12s %9.2f   (build + dc + sweep + plot + record)\n", "worker_sum",
                1e3 * (build.ms + dc.ms + sweep.ms + plot.ms + record.ms) / n);
    std::puts("");

    std::fputs("ACSTAB_BENCH_JSON [", stdout);
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::printf("%s{\"bench\":\"farm_stages\",\"workload\":\"follower-farm\","
                    "\"unknowns\":null,\"mode\":\"serial\",\"phase\":\"%s\",\"ms\":%.4f,"
                    "\"count\":%zu,\"rel_err\":null}",
                    i == 0 ? "" : ",", rows[i].name, rows[i].ms, points);
    std::puts("]");
    return 0;
}
