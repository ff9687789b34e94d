// Cross-cutting property tests: physical invariants the whole stack must
// satisfy regardless of circuit values.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>

#include "circuits/rlc.h"
#include "common/error.h"
#include "core/analyzer.h"
#include "numeric/eig.h"
#include "numeric/lu.h"
#include "numeric/sparse_factor.h"
#include "spice/ac_analysis.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/tran_analysis.h"

namespace {

using namespace acstab;
using namespace acstab::spice;

// ---- reciprocity: Z(a<-b) == Z(b<-a) for R/L/C networks -------------------

TEST(property, reciprocity_of_transfer_impedance)
{
    // Random RC mesh; inject at a, read b, then swap. Reciprocal networks
    // must give identical transfer impedances.
    std::mt19937 rng(2024);
    std::uniform_real_distribution<real> rdist(100.0, 10e3);
    std::uniform_real_distribution<real> cdist(1e-12, 1e-9);
    for (int trial = 0; trial < 5; ++trial) {
        circuit c;
        const std::size_t n = 6;
        std::vector<node_id> nodes;
        for (std::size_t k = 0; k < n; ++k)
            nodes.push_back(c.node("n" + std::to_string(k)));
        int dev = 0;
        for (std::size_t i = 0; i < n; ++i) {
            c.add<resistor>("rg" + std::to_string(i), nodes[i], ground_node, rdist(rng));
            for (std::size_t j = i + 1; j < n; ++j) {
                if ((rng() & 1u) != 0)
                    c.add<resistor>("r" + std::to_string(dev++), nodes[i], nodes[j],
                                    rdist(rng));
                if ((rng() & 1u) != 0)
                    c.add<capacitor>("c" + std::to_string(dev++), nodes[i], nodes[j],
                                     cdist(rng));
            }
        }
        const dc_result op = dc_operating_point(c);
        const std::size_t unknowns = c.unknown_count();

        const auto transfer = [&](node_id from, node_id to) {
            system_builder<cplx> b(unknowns);
            ac_params p;
            p.omega = to_omega(1e6);
            for (const auto& d : c.devices())
                d->stamp_ac(op.solution, p, b);
            b.rhs().assign(unknowns, cplx{});
            b.rhs()[static_cast<std::size_t>(from)] = cplx{1.0, 0.0};
            return solve_system(b, solver_kind::sparse)[static_cast<std::size_t>(to)];
        };
        const cplx zab = transfer(nodes[0], nodes[4]);
        const cplx zba = transfer(nodes[4], nodes[0]);
        EXPECT_LT(std::abs(zab - zba), 1e-9 * std::abs(zab)) << "trial " << trial;
    }
}

// ---- superposition in AC ---------------------------------------------------

TEST(property, ac_superposition)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id b = c.node("b");
    auto& v1 = c.add<vsource>("v1", a, ground_node, waveform_spec::make_ac(0.0, 1.0));
    auto& i2 = c.add<isource>("i2", ground_node, b, waveform_spec::make_ac(0.0, 2e-3));
    c.add<resistor>("r1", a, b, 1e3);
    c.add<resistor>("r2", b, ground_node, 2e3);
    c.add<capacitor>("c1", b, ground_node, 1e-9);
    const dc_result op = dc_operating_point(c);

    const auto response_at_b = [&](const device* only) {
        ac_options opt;
        opt.exclusive_source = only;
        const ac_result res = ac_sweep(c, {1e5}, op.solution, opt);
        return node_response(c, res, "b")[0];
    };
    const cplx both = response_at_b(nullptr);
    const cplx just_v = response_at_b(&v1);
    const cplx just_i = response_at_b(&i2);
    EXPECT_LT(std::abs(both - (just_v + just_i)), 1e-12 + 1e-9 * std::abs(both));
}

// ---- trapezoidal order of accuracy ----------------------------------------

TEST(property, trapezoidal_error_scales_quadratically)
{
    // RC charging curve: global error at t = 2 tau should drop ~4x when
    // the step is halved.
    const auto error_at = [](real dt) {
        circuit c;
        const node_id in = c.node("in");
        const node_id out = c.node("out");
        c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 1.0, 0.0, 1e-12));
        c.add<resistor>("r1", in, out, 1e3);
        c.add<capacitor>("c1", out, ground_node, 1e-9);
        tran_options opt;
        opt.tstop = 2e-6;
        opt.dt = dt;
        const tran_result res = transient(c, opt);
        const std::vector<real> v = node_waveform(c, res, "out");
        real worst = 0.0;
        for (std::size_t i = 1; i < res.time.size(); ++i) {
            const real expected = 1.0 - std::exp(-res.time[i] / 1e-6);
            worst = std::max(worst, std::fabs(v[i] - expected));
        }
        return worst;
    };
    const real e1 = error_at(4e-8);
    const real e2 = error_at(2e-8);
    const real e4 = error_at(1e-8);
    EXPECT_GT(e1 / e2, 3.0);
    EXPECT_LT(e1 / e2, 5.0);
    EXPECT_GT(e2 / e4, 3.0);
    EXPECT_LT(e2 / e4, 5.0);
}

// ---- sparse LU across sizes (parameterized) --------------------------------

class sparse_sizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(sparse_sizes, tridiagonal_round_trip)
{
    const std::size_t n = GetParam();
    numeric::triplet_matrix<real> t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        t.add(i, i, 2.0 + 0.01 * static_cast<real>(i));
        if (i + 1 < n) {
            t.add(i, i + 1, -1.0);
            t.add(i + 1, i, -0.9);
        }
    }
    std::vector<real> x_true(n);
    for (std::size_t i = 0; i < n; ++i)
        x_true[i] = std::sin(static_cast<real>(i));
    const numeric::csc_matrix<real> a(t);
    const std::vector<real> b = a.multiply(x_true);
    numeric::symbolic_lu<real>::factor_values seed;
    auto sym = std::make_shared<const numeric::symbolic_lu<real>>(a, numeric::lu_options{}, &seed);
    const std::vector<real> x = numeric::numeric_lu<real>(std::move(sym), std::move(seed)).solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-8) << "n=" << n << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(sizes, sparse_sizes, ::testing::Values(2, 5, 17, 64, 257, 1000));

// ---- eigenvalues invariant under similarity --------------------------------

TEST(property, eig_similarity_invariance)
{
    std::mt19937 rng(5);
    std::uniform_real_distribution<real> dist(-1.0, 1.0);
    const std::size_t n = 6;
    numeric::dense_matrix<real> a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = dist(rng);
    // Similarity by a diagonal scaling: D A D^-1.
    numeric::dense_matrix<real> b(n, n);
    const real scales[] = {1.0, 10.0, 0.1, 100.0, 0.01, 5.0};
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = a(i, j) * scales[i] / scales[j];
    auto ea = numeric::eigenvalues(a);
    auto eb = numeric::eigenvalues(b);
    const auto key = [](const cplx& u, const cplx& v) {
        return u.real() != v.real() ? u.real() < v.real() : u.imag() < v.imag();
    };
    std::sort(ea.begin(), ea.end(), key);
    std::sort(eb.begin(), eb.end(), key);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_LT(std::abs(ea[i] - eb[i]), 1e-7);
}

// ---- the stability plot is invariant to where in the loop you probe --------

TEST(property, probe_position_invariance_for_shared_loop)
{
    // Every node that carries a loop's complex pair must report the same
    // natural frequency and (closely) the same peak value — the basis of
    // the paper's loop grouping.
    circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.25, 1e6);
    const node_id tap1 = c.node("tap1");
    const node_id tap2 = c.node("tap2");
    c.add<resistor>("rt1", *c.find_node("tank"), tap1, 5.0);
    c.add<resistor>("rt2", tap1, tap2, 5.0);
    c.add<capacitor>("ct2", tap2, ground_node, 1e-14);

    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    opt.sweep.points_per_decade = 50;
    core::stability_analyzer an(c, opt);
    const core::stability_report rep = an.analyze_all_nodes();
    ASSERT_EQ(rep.loops.size(), 1u);
    EXPECT_EQ(rep.loops[0].members.size(), 3u);
    for (const std::size_t idx : rep.loops[0].members) {
        EXPECT_NEAR(rep.nodes[idx].dominant.freq_hz, 1e6, 2e4);
        EXPECT_NEAR(rep.nodes[idx].zeta, 0.25, 0.02);
    }
}

// ---- gshunt does not distort peaks at realistic values ----------------------

TEST(property, gshunt_insensitivity)
{
    const auto peak_with = [](real gshunt) {
        circuit c;
        circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
        core::stability_options opt;
        opt.gshunt = gshunt;
        opt.sweep.fstart = 1e4;
        opt.sweep.fstop = 1e8;
        opt.sweep.points_per_decade = 50;
        core::stability_analyzer an(c, opt);
        return an.analyze_node("tank").dominant.value;
    };
    const real a = peak_with(1e-12);
    const real b = peak_with(1e-9);
    EXPECT_NEAR(a, b, 1e-3 * std::fabs(a));
}

} // namespace
