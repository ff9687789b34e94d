// Self-test of the benchmark's own machinery: input generation is a pure
// function of the seed, every correctness check rejects a deliberately
// corrupted result, and the names the benchmark prints are the ones
// BENCHMARK.json declares.
//
//   ctest --test-dir .bench_build/cmake     (or run bench_e2e_selftest)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "core/analyzer.h"
#include "core/tran_stability.h"
#include "farm/json.h"
#include "gen.h"
#include "metrics.h"
#include "spice/parser/netlist_parser.h"

#ifndef BENCH_E2E_REPO_ROOT
#define BENCH_E2E_REPO_ROOT "."
#endif

namespace {

using namespace acstab;
using namespace bench;

int failures = 0;

void expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

void expect_pass(const std::string& err, const std::string& what)
{
    expect(err.empty(), what + " should pass, got: " + err);
}

void expect_fail(const std::string& err, const std::string& what)
{
    expect(!err.empty(), what + " should fail");
}

core::stability_options small_sweep()
{
    core::stability_options sopt;
    sopt.sweep.fstart = 1e3;
    sopt.sweep.fstop = 1e9;
    sopt.sweep.points_per_decade = 50;
    return sopt;
}

void test_generator_determinism()
{
    const mesh_spec spec{.size = 400, .tanks = 3};
    const mesh_input a = make_mesh(spec, 11);
    const mesh_input b = make_mesh(spec, 11);
    const mesh_input c = make_mesh(spec, 12);
    expect(a.netlist == b.netlist, "same seed gives the same netlist");
    expect(a.probe == b.probe && a.spot_nodes == b.spot_nodes, "same seed, same probe and spots");
    expect(a.netlist != c.netlist, "another seed gives another netlist");
    expect(a.tanks.size() == 3, "three tanks planted");
    for (std::size_t i = 0; i < a.tanks.size(); ++i) {
        expect(a.tanks[i].f0_hz == b.tanks[i].f0_hz, "same seed, same tank f0");
        expect(std::fabs(a.tanks[i].f0_hz * two_pi * std::sqrt(a.tanks[i].l_h * a.tanks[i].c_f)
                         - 1.0)
                   < 1e-12,
               "f0 is 1/(2 pi sqrt(LC)) of the emitted values");
        expect(a.netlist.find("lt" + std::to_string(i) + " " + a.tanks[i].node + " 0 ")
                   != std::string::npos,
               "tank inductor emitted");
    }
    const std::vector<real> ta = make_temperature_grid(50, 3);
    expect(ta == make_temperature_grid(50, 3), "same seed gives the same temperatures");
    expect(ta != make_temperature_grid(50, 4), "another seed gives other temperatures");
    for (std::size_t i = 0; i < ta.size(); ++i) {
        expect(ta[i] >= -40.0 && ta[i] <= 125.0, "temperature in range");
        if (i > 0)
            expect(ta[i] > ta[i - 1], "temperatures strictly ascending");
    }
}

void test_equivalence_check()
{
    const std::vector<real> want{1.0, 2.0, 4.0};
    expect_pass(check_equivalent(want, want, 0.0, "x"), "identical records");
    std::vector<real> got = want;
    got[1] *= 1.0 + 1e-9;
    expect_fail(check_equivalent(got, want, 0.0, "x"), "a 1e-9 deviation");
    got = want;
    got[2] = std::numeric_limits<real>::quiet_NaN();
    expect_fail(check_equivalent(got, want, 0.0, "x"), "a NaN sample");
    got.pop_back();
    expect_fail(check_equivalent(got, want, 0.0, "x"), "a short record");
}

void test_planted_loop_checks()
{
    const mesh_input in = make_mesh({.size = 100, .tanks = 2}, 5);
    spice::parsed_netlist net = spice::parse_netlist(in.netlist);
    core::stability_analyzer an(net.ckt, small_sweep());
    const tank& t = in.tanks[in.probe];
    const core::node_stability ns = an.analyze_node(t.node);
    expect_pass(check_planted_loop(ns, t), "analyze_node at a planted tank");

    core::node_stability bad = ns;
    bad.dominant.freq_hz *= 1.5;
    expect_fail(check_planted_loop(bad, t), "a loop at the wrong frequency");
    bad = ns;
    bad.is_underdamped = false;
    expect_fail(check_planted_loop(bad, t), "a loop not reported underdamped");
    bad = ns;
    bad.has_peak = false;
    expect_fail(check_planted_loop(bad, t), "a missing loop");

    const core::stability_report rep = an.analyze_all_nodes();
    magnitude_oracle oracle;
    for (const tank& tk : in.tanks)
        oracle.emplace_back(tk.node, an.analyze_node(tk.node).plot.magnitude);
    oracle.emplace_back(in.spot_nodes[0], an.analyze_node(in.spot_nodes[0]).plot.magnitude);
    expect_pass(check_all_nodes(rep, in.tanks, oracle), "analyze_all_nodes on a planted mesh");

    core::stability_report corrupt = rep;
    corrupt.loops.clear();
    expect_fail(check_all_nodes(corrupt, in.tanks, oracle), "a report without loop groups");
    corrupt = rep;
    for (core::node_stability& n : corrupt.nodes)
        if (n.node == in.spot_nodes[0])
            n.plot.magnitude[7] *= 1.0 + 1e-6;
    expect_fail(check_all_nodes(corrupt, in.tanks, oracle), "a perturbed magnitude");
    corrupt = rep;
    for (core::node_stability& n : corrupt.nodes)
        if (n.node == in.tanks[0].node)
            n.node = "renamed";
    expect_fail(check_all_nodes(corrupt, in.tanks, oracle), "a tank node missing");
}

void test_transient_checks()
{
    const mesh_input in = make_mesh({.size = 100, .tanks = 1}, 9);
    const tank& t = in.tanks[0];
    core::tran_stability_options topt;
    topt.tstop = 16.0 / t.f0_hz;
    topt.dt = topt.tstop / 1000.0;
    topt.max_points = std::size_t{1} << 20;
    core::tran_stability_options oneshot = topt;
    oneshot.tran.shared_solver = false;
    spice::parsed_netlist na = spice::parse_netlist(in.netlist);
    spice::parsed_netlist nb = spice::parse_netlist(in.netlist);
    const core::tran_stability_result shared = core::measure_tran_stability(na.ckt, t.node, topt);
    const core::tran_stability_result ref = core::measure_tran_stability(nb.ckt, t.node, oneshot);
    expect_pass(check_tran_loop(shared, t), "step response at a planted tank");
    expect_pass(check_tran_equivalent(shared, ref), "shared vs one-shot transient");

    core::tran_stability_result bad = shared;
    bad.value[bad.value.size() / 2] += 1e-9;
    expect_fail(check_tran_equivalent(bad, ref), "a perturbed waveform");
    bad = shared;
    bad.time.back() *= 1.0 + 1e-12;
    expect_fail(check_tran_equivalent(bad, ref), "shifted time points");
    bad = shared;
    bad.ringing_freq_hz *= 1.5;
    expect_fail(check_tran_loop(bad, t), "ringing at the wrong frequency");
    bad = shared;
    bad.stable = false;
    expect_fail(check_tran_loop(bad, t), "an unstable verdict");
    bad = shared;
    bad.zeta = 1.2;
    expect_fail(check_tran_loop(bad, t), "an overdamped verdict");
}

void test_same_bytes_check()
{
    const std::filesystem::path dir = "bench_e2e_selftest_bytes";
    std::filesystem::create_directories(dir);
    const std::string a = (dir / "a").string();
    const std::string b = (dir / "b").string();
    const std::string text(200000, 'x');
    std::ofstream(a, std::ios::binary) << text;
    std::ofstream(b, std::ios::binary) << text;
    expect_pass(check_same_bytes(a, b), "identical files");
    std::string flipped = text;
    flipped[150000] = 'y';
    std::ofstream(b, std::ios::binary) << flipped;
    expect_fail(check_same_bytes(a, b), "one flipped byte");
    std::ofstream(b, std::ios::binary) << text.substr(0, 100000);
    expect_fail(check_same_bytes(a, b), "a truncated file");
    std::filesystem::remove_all(dir);
}

void test_names_match_benchmark_json()
{
    std::ifstream in(std::string(BENCH_E2E_REPO_ROOT) + "/BENCHMARK.json");
    expect(in.good(), "BENCHMARK.json readable");
    if (!in.good())
        return;
    std::ostringstream buf;
    buf << in.rdbuf();
    const farm::json_value doc = farm::json_value::parse(buf.str());

    const auto& workloads = doc.at("workloads").items();
    expect(workloads.size() == workload_names.size(), "workload count");
    for (std::size_t i = 0; i < std::min(workloads.size(), workload_names.size()); ++i)
        expect(workloads[i].at("name").as_string() == workload_names[i],
               "workload " + std::string(workload_names[i]));

    const auto same = [](const farm::json_value& list, const auto& defs, const std::string& key) {
        const auto& items = list.items();
        expect(items.size() == defs.size(), key + " count");
        for (std::size_t i = 0; i < std::min(items.size(), defs.size()); ++i) {
            expect(items[i].at("name").as_string() == defs[i].name,
                   key + " name " + std::string(defs[i].name));
            expect(items[i].at("unit").as_string() == defs[i].unit,
                   key + " unit of " + std::string(defs[i].name));
        }
    };
    same(doc.at("end_to_end"), end_to_end_metrics, "end_to_end");
    same(doc.at("per_layer"), per_layer_metrics, "per_layer");
}

} // namespace

int main()
{
    test_generator_determinism();
    test_equivalence_check();
    test_planted_loop_checks();
    test_transient_checks();
    test_same_bytes_check();
    test_names_match_benchmark_json();
    if (failures != 0) {
        std::fprintf(stderr, "bench_e2e_selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::puts("bench_e2e_selftest: all checks passed");
    return 0;
}
