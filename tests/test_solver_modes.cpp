// Solver-mode equivalence: the ordering / SIMD-kernel / supernodal
// oracle selectors of engine::solver_tuning change speed, never answers.
// Every shipped netlist must produce the same verdicts (margins within
// tolerance) under amd-approx/none ordering, SIMD/scalar kernels and
// blocked/column numeric paths at 1 and 4 threads; farm reports are
// byte-identical across thread counts, and plans carry no solver modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/analyzer.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "gen/netlist_gen.h"
#include "numeric/interpolation.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;

std::string netlist(const char* name)
{
    return std::string(ACSTAB_NETLIST_DIR) + "/" + name;
}

const char* const shipped[] = {"follower.sp", "rlc_tank.sp", "three_pole_loop.sp",
                               "two_pole_loop.sp"};

core::stability_report report_for(const char* name, engine::solver_tuning tuning,
                                  std::size_t threads)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist(name));
    core::stability_options opt;
    opt.threads = threads;
    opt.tuning = tuning;
    core::stability_analyzer an(net.ckt, opt);
    return an.analyze_all_nodes();
}

void expect_equivalent(const core::stability_report& ref, const core::stability_report& got,
                       const std::string& label)
{
    ASSERT_EQ(got.nodes.size(), ref.nodes.size()) << label;
    ASSERT_EQ(got.skipped_nodes, ref.skipped_nodes) << label;
    for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
        const core::node_stability& r = ref.nodes[i];
        // Reports sort nodes by natural frequency; nodes whose frequencies
        // agree to rounding may legally swap places between solver modes,
        // so match records by name rather than position.
        const auto match = std::find_if(got.nodes.begin(), got.nodes.end(),
                                        [&r](const core::node_stability& n) {
                                            return n.node == r.node;
                                        });
        ASSERT_NE(match, got.nodes.end()) << label << " node " << r.node;
        const core::node_stability& g = *match;
        ASSERT_EQ(g.has_peak, r.has_peak) << label << " node " << r.node;
        ASSERT_EQ(g.is_underdamped, r.is_underdamped) << label << " node " << r.node;
        if (!r.has_peak)
            continue;
        EXPECT_NEAR(g.dominant.freq_hz, r.dominant.freq_hz, 1e-6 * r.dominant.freq_hz)
            << label << " node " << r.node;
        EXPECT_NEAR(g.zeta, r.zeta, 1e-6 * std::max(r.zeta, real{1e-6}))
            << label << " node " << r.node;
        EXPECT_NEAR(g.phase_margin_est_deg, r.phase_margin_est_deg, 1e-3)
            << label << " node " << r.node;
    }
    ASSERT_EQ(got.loops.size(), ref.loops.size()) << label;
}

/// amd-approx vs natural ordering, SIMD vs scalar kernels and the
/// partition's pick vs the forced column numeric path on every shipped
/// netlist, each at 1 and 4 threads, against the default-configuration
/// serial reference: identical verdicts, margins within tolerance. The
/// shipped netlists are small enough to pick the column path, so the
/// blocked kernel on them is covered in test_supernode.cpp by forcing
/// numeric_lu::set_supernodal(true).
TEST(solver_modes, ordering_and_kernel_equivalence_on_shipped_netlists)
{
    struct mode {
        const char* name;
        numeric::column_ordering ordering;
        bool simd;
        bool supernodal;
    };
    const mode modes[] = {
        {"amd-approx", numeric::column_ordering::amd_approx, true, true},
        {"amd-approx-scalar", numeric::column_ordering::amd_approx, false, true},
        {"amd-approx-column-scalar", numeric::column_ordering::amd_approx, false, false},
        {"none", numeric::column_ordering::none, true, true},
        {"none-scalar", numeric::column_ordering::none, false, true},
        {"none-column-scalar", numeric::column_ordering::none, false, false},
    };

    for (const char* name : shipped) {
        const core::stability_report ref = report_for(name, {}, 1);
        for (const mode& m : modes)
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                engine::solver_tuning tuning;
                tuning.ordering = m.ordering;
                tuning.simd = m.simd;
                tuning.supernodal = m.supernodal;
                expect_equivalent(ref, report_for(name, tuning, threads),
                                  std::string(name) + " " + m.name + " threads="
                                      + std::to_string(threads));
            }
    }
}

// ---- raw-engine agreement on a generated mesh ------------------------------

struct sweep_capture {
    std::vector<std::vector<std::vector<cplx>>> sol; ///< [fi][ri][unknown]
};

sweep_capture run_engine(const engine::linearized_snapshot& snap,
                         const std::vector<real>& freqs,
                         const std::vector<engine::sweep_engine::injection>& injections,
                         engine::solver_tuning tuning, std::size_t threads)
{
    engine::sweep_engine_options opt;
    opt.threads = threads;
    opt.tuning = tuning;
    const engine::sweep_engine eng(opt);
    sweep_capture cap;
    cap.sol.assign(freqs.size(),
                   std::vector<std::vector<cplx>>(injections.size(),
                                                  std::vector<cplx>(snap.size())));
    eng.run_injections(snap, freqs, injections,
                       [&cap](std::size_t fi, std::size_t ri, std::span<const cplx> s) {
                           cap.sol[fi][ri].assign(s.begin(), s.end());
                       });
    return cap;
}

real max_rel_diff(const sweep_capture& a, const sweep_capture& b)
{
    real scale = 0.0;
    for (const auto& per_freq : a.sol)
        for (const auto& col : per_freq)
            for (const cplx& v : col)
                scale = std::max(scale, std::abs(v));
    real diff = 0.0;
    for (std::size_t fi = 0; fi < a.sol.size(); ++fi)
        for (std::size_t ri = 0; ri < a.sol[fi].size(); ++ri)
            for (std::size_t k = 0; k < a.sol[fi][ri].size(); ++k)
                diff = std::max(diff, std::abs(a.sol[fi][ri][k] - b.sol[fi][ri][k]));
    return diff / std::max(scale, real{1e-300});
}

engine::linearized_snapshot mesh_snapshot(spice::parsed_netlist& net, std::size_t size)
{
    gen::gen_options gopt;
    gopt.size = size;
    net = spice::parse_netlist(gen::rcmesh_netlist(gopt));
    net.ckt.finalize();
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    return engine::linearized_snapshot(net.ckt, op, sopt);
}

/// The mesh these tests run on must be one whose supernode partition
/// picks the blocked path: on a structure that picks column, the SIMD
/// kernel and the supernodal selector would compare column with column.
void expect_blocked_pick(const engine::linearized_snapshot& snap)
{
    ASSERT_TRUE(snap.shared_symbolic(to_omega(1e5))->blocked_refactor_pays())
        << "the mesh no longer picks the blocked path";
}

TEST(solver_modes, simd_and_scalar_kernels_agree_on_generated_mesh)
{
    spice::parsed_netlist net;
    const engine::linearized_snapshot snap = mesh_snapshot(net, 400);
    expect_blocked_pick(snap);
    const std::vector<real> freqs = numeric::log_grid(1e4, 1e7, 12);
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < snap.size(); k += 4)
        injections.push_back({k, cplx{1.0, 0.0}});

    engine::solver_tuning simd_on;
    engine::solver_tuning simd_off;
    simd_off.simd = false;
    const sweep_capture ref = run_engine(snap, freqs, injections, simd_off, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const sweep_capture simd = run_engine(snap, freqs, injections, simd_on, threads);
        EXPECT_LE(max_rel_diff(ref, simd), 1e-12) << "threads=" << threads;
    }
}

/// The supernodal/blocked numeric path against the column-at-a-time
/// reference on a generated mesh (the fill-heavy case where supernodes
/// actually get wide, and the one the partition runs blocked), at 1 and
/// 4 threads: answers agree to 1e-12.
TEST(solver_modes, supernodal_and_column_paths_agree_on_generated_mesh)
{
    spice::parsed_netlist net;
    const engine::linearized_snapshot snap = mesh_snapshot(net, 400);
    expect_blocked_pick(snap);
    const std::vector<real> freqs = numeric::log_grid(1e4, 1e7, 12);
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < snap.size(); k += 5)
        injections.push_back({k, cplx{1.0, 0.0}});

    engine::solver_tuning column;
    column.supernodal = false;
    engine::solver_tuning blocked; // default: the partition picks blocked here
    const sweep_capture ref = run_engine(snap, freqs, injections, column, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const sweep_capture blk = run_engine(snap, freqs, injections, blocked, threads);
        EXPECT_LE(max_rel_diff(ref, blk), 1e-12) << "threads=" << threads;
    }
}

// ---- farm-report byte identity ---------------------------------------------

farm::campaign_spec tank_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = netlist("rlc_tank.sp");
    spec.node = "tank";
    spec.fstart = 1e4;
    spec.fstop = 1e8;
    spec.points_per_decade = 40;
    spec.grid.temps = {0.0, 50.0};
    return spec;
}

std::string farm_table(std::size_t threads)
{
    const farm::campaign_spec spec = tank_campaign();
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1, threads);
    return farm::format_report(
        farm::merge_shards(spec, {farm::shard_to_json(spec, 0, 1, records)}));
}

/// Scheduling must not leak into reported results: the formatted farm
/// report of a small campaign is byte-identical across point-level
/// thread counts (the solver selectors are covered analyzer-level by
/// ordering_and_kernel_equivalence_on_shipped_netlists).
TEST(solver_modes, farm_reports_are_byte_identical_across_thread_counts)
{
    const std::string ref = farm_table(1);
    EXPECT_NE(ref.find("corner-farm campaign report, node 'tank'"), std::string::npos);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}})
        EXPECT_EQ(farm_table(threads), ref) << "threads=" << threads;
}

/// Plans carry no solver settings: a default plan keeps the bytes it had
/// when solver modes could still be serialized (none of their keys
/// appear), down to the last byte of a fixed campaign.
TEST(solver_modes, default_plan_bytes_are_stable)
{
    const std::string plain_bytes = farm::to_json(tank_campaign()).dump();
    EXPECT_EQ(plain_bytes.find("\"order\""), std::string::npos);
    EXPECT_EQ(plain_bytes.find("\"simd\""), std::string::npos);
    EXPECT_EQ(plain_bytes.find("\"warm\""), std::string::npos);
    EXPECT_EQ(plain_bytes.find("\"supernodal\""), std::string::npos);
    EXPECT_EQ(plain_bytes.find("\"warm_pipeline\""), std::string::npos);

    farm::campaign_spec spec = tank_campaign();
    spec.netlist = "rlc_tank.sp";
    EXPECT_EQ(farm::to_json(spec).dump(),
              R"({"schema":"acstab-farm-campaign-v1","netlist":"rlc_tank.sp","node":"tank",)"
              R"("grid":{"temps":[0,50],"corners":[],"axes":[]},"points":2,)"
              R"("sweep":{"fstart":10000,"fstop":1e+08,"points_per_decade":40,)"
              R"("adaptive":false,"fit_tol":1e-06,"anchors_per_decade":4}})");
}

/// A plan written by an older build that still names a removed solver
/// mode must fail at load with an error naming the key and telling the
/// user to re-plan, never silently run the default configuration (which
/// would change the last bits of a "byte-identical" report).
TEST(solver_modes, plans_naming_a_removed_solver_mode_are_rejected)
{
    const std::string plain_bytes = farm::to_json(tank_campaign()).dump();
    EXPECT_NO_THROW(
        static_cast<void>(farm::campaign_from_json(farm::json_value::parse(plain_bytes))));
    const std::pair<const char*, farm::json_value> removed[] = {
        {"order", farm::json_value::str("amd")},
        {"simd", farm::json_value::boolean(true)},
        {"warm", farm::json_value::boolean(true)},
        {"supernodal", farm::json_value::boolean(false)},
        {"warm_pipeline", farm::json_value::boolean(false)},
    };
    for (const auto& [key, value] : removed) {
        farm::json_value doc = farm::to_json(tank_campaign());
        farm::json_value sweep = doc.at("sweep");
        sweep.set(key, value);
        doc.set("sweep", std::move(sweep));
        try {
            static_cast<void>(farm::campaign_from_json(doc));
            ADD_FAILURE() << "plan with sweep." << key << " was accepted";
        } catch (const analysis_error& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(std::string("'sweep.") + key + "'"), std::string::npos) << msg;
            EXPECT_NE(msg.find("farm plan"), std::string::npos) << msg;
        }
    }
}

} // namespace
