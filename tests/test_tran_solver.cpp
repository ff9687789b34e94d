// Shared-symbolic transient solver: equivalence against the seed
// one-shot path, solver-counter contracts, factor reuse across
// bit-identical stamps, and the actionable non-convergence ladder
// diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "gen/netlist_gen.h"
#include "spice/circuit.h"
#include "spice/devices/diode.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/parser/netlist_parser.h"
#include "spice/tran_analysis.h"
#include "spice/tran_solver.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;
using namespace acstab::spice;

[[nodiscard]] std::string netlist_path(const std::string& name)
{
    return std::string(ACSTAB_NETLIST_DIR) + "/" + name;
}

/// Run the same transient twice — shared-symbolic vs seed one-shot — on
/// freshly parsed circuits and require waveform agreement to solver
/// rounding (1e-12 relative) at every step of every unknown. Both paths
/// run the identical Newton iteration; only the linear-solve plumbing
/// differs, so this bound is tight, not statistical. A `linear` circuit
/// assembles one companion matrix per (integration method, dt), so the
/// shared path must also reuse its factors across most Newton solves.
void expect_paths_equivalent(const std::string& text, real tstop, bool linear)
{
    tran_options shared_opt;
    shared_opt.tstop = tstop;
    shared_opt.shared_solver = true;
    tran_options oneshot_opt = shared_opt;
    oneshot_opt.shared_solver = false;

    parsed_netlist net_a = parse_netlist(text);
    const tran_result a = transient(net_a.ckt, shared_opt);
    parsed_netlist net_b = parse_netlist(text);
    const tran_result b = transient(net_b.ckt, oneshot_opt);

    ASSERT_EQ(a.time.size(), b.time.size());
    // Agreement bound: 1e-12 relative to the run's solution scale
    // (||a - b||_inf <= 1e-12 * ||x||_inf, floor 1). Per-sample rounding
    // differs in the last bits because the shared path's supernodal
    // kernel sums in a different order than the one-shot factorization.
    real scale = 1.0;
    for (const std::vector<real>& row : a.solution)
        for (const real v : row)
            scale = std::max(scale, std::fabs(v));
    for (std::size_t s = 0; s < a.time.size(); ++s) {
        ASSERT_EQ(a.time[s], b.time[s]) << "step " << s;
        ASSERT_EQ(a.solution[s].size(), b.solution[s].size());
        for (std::size_t i = 0; i < a.solution[s].size(); ++i)
            EXPECT_LE(std::fabs(a.solution[s][i] - b.solution[s][i]), 1e-12 * scale)
                << "step " << s << " unknown " << i << " t=" << a.time[s];
    }
    // The shared path factored symbolically once; the one-shot baseline
    // reports no shared-solver activity at all.
    EXPECT_GE(a.solver.solves, a.time.size() - 1);
    EXPECT_GE(a.solver.symbolic_builds, std::size_t{1});
    EXPECT_EQ(b.solver.solves, std::size_t{0});
    EXPECT_EQ(b.solver.symbolic_builds, std::size_t{0});
    if (linear)
        EXPECT_LE(a.solver.refactors * 10, a.solver.solves)
            << a.solver.refactors << " refactors for " << a.solver.solves << " solves";
}

[[nodiscard]] std::string read_file(const std::string& path)
{
    parsed_netlist net = parse_netlist_file(path); // validates while we are at it
    (void)net;
    std::string text;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

TEST(tran_solver, equivalence_follower)
{
    // BJT follower: nonlinear junctions, several Newton iterations per
    // step, ringing near 100 MHz.
    expect_paths_equivalent(read_file(netlist_path("follower.sp")), 1e-7, false);
}

TEST(tran_solver, equivalence_rlc_tank)
{
    expect_paths_equivalent(read_file(netlist_path("rlc_tank.sp")), 1e-5, true);
}

TEST(tran_solver, equivalence_two_pole_loop)
{
    expect_paths_equivalent(read_file(netlist_path("two_pole_loop.sp")), 1.3e-5, true);
}

TEST(tran_solver, equivalence_three_pole_loop)
{
    // Unstable loop (PM about -61 deg): keep the window short so the
    // exponential growth stays in range while both paths track it.
    expect_paths_equivalent(read_file(netlist_path("three_pole_loop.sp")), 5e-5, true);
}

TEST(tran_solver, equivalence_generated_rcmesh)
{
    gen::gen_options gopt;
    gopt.size = 64;
    expect_paths_equivalent(gen::rcmesh_netlist(gopt), 2e-5, true);
}

TEST(tran_solver, linear_circuit_factors_symbolically_once)
{
    // A linear RC circuit keeps one stamp pattern and one set of values
    // per step: the shared solver must never rebuild the pattern, never
    // trip the growth guard, and build exactly one symbolic analysis.
    circuit c;
    const node_id in = c.node("in");
    const node_id out = c.node("out");
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 1.0, 0.0, 1e-9));
    c.add<resistor>("r1", in, out, 1e3);
    c.add<capacitor>("c1", out, ground_node, 1e-9);

    tran_options opt;
    opt.tstop = 5e-6;
    opt.dt = 5e-9;
    const tran_result res = transient(c, opt);
    EXPECT_EQ(res.solver.symbolic_builds, std::size_t{1});
    EXPECT_EQ(res.solver.pattern_rebuilds, std::size_t{0});
    EXPECT_EQ(res.solver.guard_rebuilds, std::size_t{0});
    EXPECT_GE(res.solver.solves, res.time.size() - 1);
    // One companion matrix per (integration method, dt): the factors are
    // reused across every Newton solve that assembles the same values.
    EXPECT_LE(res.solver.refactors * 10, res.solver.solves)
        << res.solver.refactors << " refactors for " << res.solver.solves << " solves";
}

/// Stamp an n-node resistor chain (unit conductances between neighbours,
/// `ground` from node 0 to ground) with `rhs` as the injected currents.
void stamp_chain(tran_solver& s, std::size_t n, real ground, const std::vector<real>& rhs)
{
    system_builder<real>& b = s.begin_stamp();
    for (std::size_t i = 0; i + 1 < n; ++i)
        b.conductance(static_cast<node_id>(i), static_cast<node_id>(i + 1), 1.0);
    b.add(0, 0, ground);
    for (std::size_t i = 0; i < n; ++i)
        b.rhs_add(static_cast<node_id>(i), rhs[i]);
}

/// ||A x - rhs||_inf for the chain stamp_chain assembles.
[[nodiscard]] real chain_residual(real ground, const std::vector<real>& x,
                                  const std::vector<real>& rhs)
{
    real worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        real ax = i == 0 ? ground * x[0] : 0.0;
        if (i > 0)
            ax += x[i] - x[i - 1];
        if (i + 1 < x.size())
            ax += x[i] - x[i + 1];
        worst = std::max(worst, std::fabs(ax - rhs[i]));
    }
    return worst;
}

[[nodiscard]] bool same_bits(const std::vector<real>& a, const std::vector<real>& b)
{
    return a.size() == b.size()
           && std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

TEST(tran_solver, identical_stamp_reuses_factors)
{
    constexpr std::size_t n = 40;
    std::vector<real> rhs1(n, 0.0);
    std::vector<real> rhs2(n, 0.0);
    rhs1[n - 1] = 1e-3;
    rhs2[n / 2] = -2.5;
    rhs2[0] = 0.75;

    tran_solver s(n);
    stamp_chain(s, n, 1.0, rhs1);
    const std::vector<real> x1 = s.solve();
    const std::size_t refactors = s.stats().refactors;
    EXPECT_EQ(refactors, std::size_t{1});
    EXPECT_LE(chain_residual(1.0, x1, rhs1), 1e-12);

    // Same matrix, new right-hand side: triangular solve only.
    stamp_chain(s, n, 1.0, rhs2);
    const std::vector<real> x2 = s.solve();
    EXPECT_EQ(s.stats().refactors, refactors);
    EXPECT_LE(chain_residual(1.0, x2, rhs2), 1e-12);

    // The reused factors are the factors: the first solve reproduces
    // bit for bit.
    stamp_chain(s, n, 1.0, rhs1);
    const std::vector<real> x3 = s.solve();
    EXPECT_EQ(s.stats().refactors, refactors);
    EXPECT_TRUE(same_bits(x1, x3));

    EXPECT_EQ(s.stats().solves, std::size_t{3});
    EXPECT_EQ(s.stats().symbolic_builds, std::size_t{1});
    EXPECT_EQ(s.stats().pattern_rebuilds, std::size_t{0});
}

TEST(tran_solver, one_ulp_change_refactors)
{
    constexpr std::size_t n = 40;
    std::vector<real> rhs(n, 0.0);
    rhs[n - 1] = 1.0;

    tran_solver s(n);
    stamp_chain(s, n, 1.0, rhs);
    (void)s.solve();
    const std::size_t refactors = s.stats().refactors;

    // One ulp up on the assembled (0, 0) entry, 1 + ground = 2. (A
    // one-ulp nudge of ground itself rounds away in that sum.)
    const real nudged = std::nextafter(2.0, 3.0) - 1.0;
    stamp_chain(s, n, nudged, rhs);
    const std::vector<real> x = s.solve();
    EXPECT_EQ(s.stats().refactors, refactors + 1);
    EXPECT_EQ(s.stats().symbolic_builds, std::size_t{1});
    EXPECT_LE(chain_residual(nudged, x, rhs), 1e-12);
}

TEST(tran_solver, singular_stamp_does_not_leave_stale_factors)
{
    // [[a, -1], [-1, 1]] in a fixed stamp sequence: nonsingular at
    // a = 2, exactly singular at a = 1 (the second pivot cancels to 0).
    const auto stamp = [](tran_solver& s, real a, const std::vector<real>& rhs) {
        system_builder<real>& b = s.begin_stamp();
        b.add(0, 0, a);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 1.0);
        b.rhs_add(0, rhs[0]);
        b.rhs_add(1, rhs[1]);
    };
    const std::vector<real> rhs{1.0, 3.0};

    tran_solver s(2);
    stamp(s, 2.0, rhs);
    (void)s.solve();

    stamp(s, 1.0, rhs);
    EXPECT_THROW((void)s.solve(), numeric_error);

    // The failed refactor overwrote the factors of the good matrix: they
    // must be recomputed, not reused.
    const std::size_t refactors = s.stats().refactors;
    stamp(s, 2.0, rhs);
    const std::vector<real> x = s.solve();
    EXPECT_GT(s.stats().refactors, refactors);
    ASSERT_EQ(x.size(), std::size_t{2});
    EXPECT_LE(std::fabs(2.0 * x[0] - x[1] - rhs[0]), 1e-12);
    EXPECT_LE(std::fabs(-x[0] + x[1] - rhs[1]), 1e-12);
}

TEST(tran_solver, nonconvergence_reports_step_ladder)
{
    // A hard-driven diode with a one-iteration Newton budget cannot
    // converge; with dtmin_factor 0.5 the halving ladder has exactly one
    // rung below the nominal step before the engine gives up. The
    // diagnostic must carry the failing time, the attempted ladder and
    // the step floor — the actionable bits.
    circuit c;
    const node_id in = c.node("in");
    const node_id out = c.node("out");
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 5.0, 0.0, 1e-9));
    c.add<resistor>("r1", in, out, 100.0);
    c.add<diode>("d1", out, ground_node);

    tran_options opt;
    opt.tstop = 1e-6;
    opt.dt = 1e-8;
    opt.max_newton = 1;
    opt.dtmin_factor = 0.5;
    try {
        (void)transient(c, opt);
        FAIL() << "expected convergence_error";
    } catch (const convergence_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("transient: Newton failed at t = "), std::string::npos) << msg;
        EXPECT_NE(msg.find("advancing toward"), std::string::npos) << msg;
        EXPECT_NE(msg.find("attempted:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dt="), std::string::npos) << msg;
        EXPECT_NE(msg.find("no convergence in 1 iteration(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("minimum step"), std::string::npos) << msg;
    }
}

TEST(tran_solver, oneshot_nonconvergence_matches_shared_diagnostic)
{
    // The ladder diagnostic is a property of the engine, not the solver
    // path: both paths fail at the same point with the same message.
    const auto run = [](bool shared) -> std::string {
        circuit c;
        const node_id in = c.node("in");
        const node_id out = c.node("out");
        c.add<vsource>("vin", in, ground_node,
                       waveform_spec::make_step(0.0, 5.0, 0.0, 1e-9));
        c.add<resistor>("r1", in, out, 100.0);
        c.add<diode>("d1", out, ground_node);
        tran_options opt;
        opt.tstop = 1e-6;
        opt.dt = 1e-8;
        opt.max_newton = 1;
        opt.dtmin_factor = 0.5;
        opt.shared_solver = shared;
        try {
            (void)transient(c, opt);
        } catch (const convergence_error& e) {
            return e.what();
        }
        return {};
    };
    const std::string shared_msg = run(true);
    const std::string oneshot_msg = run(false);
    ASSERT_FALSE(shared_msg.empty());
    EXPECT_EQ(shared_msg, oneshot_msg);
}

} // namespace
