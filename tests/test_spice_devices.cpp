// Device-level checks: stamps, models, small-signal parameters, polarity.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/devices/bjt.h"
#include "spice/devices/diode.h"
#include "spice/devices/junction.h"
#include "spice/devices/mosfet.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"

namespace {

using namespace acstab;
using namespace acstab::spice;

TEST(device, resistor_stamp_pattern)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id b = c.node("b");
    auto& r = c.add<resistor>("r1", a, b, 100.0);
    c.finalize();
    system_builder<real> builder(c.unknown_count());
    std::vector<real> x(c.unknown_count(), 0.0);
    stamp_params p;
    r.stamp_dc(x, p, builder);
    const auto m = builder.matrix().to_dense();
    EXPECT_NEAR(m(0, 0), 0.01, 1e-15);
    EXPECT_NEAR(m(1, 1), 0.01, 1e-15);
    EXPECT_NEAR(m(0, 1), -0.01, 1e-15);
    EXPECT_NEAR(m(1, 0), -0.01, 1e-15);
}

TEST(device, grounded_stamps_are_dropped)
{
    circuit c;
    const node_id a = c.node("a");
    auto& r = c.add<resistor>("r1", a, ground_node, 50.0);
    c.finalize();
    system_builder<real> builder(c.unknown_count());
    std::vector<real> x(c.unknown_count(), 0.0);
    stamp_params p;
    r.stamp_dc(x, p, builder);
    const auto m = builder.matrix().to_dense();
    EXPECT_NEAR(m(0, 0), 0.02, 1e-15); // only the (a,a) entry survives
}

TEST(device, parameter_validation)
{
    circuit c;
    const node_id a = c.node("a");
    EXPECT_THROW(c.add<resistor>("rbad", a, ground_node, -1.0), circuit_error);
    EXPECT_THROW(c.add<resistor>("rzero", a, ground_node, 0.0), circuit_error);
    EXPECT_THROW(c.add<capacitor>("cbad", a, ground_node, -1e-12), circuit_error);
    EXPECT_THROW(c.add<inductor>("lbad", a, ground_node, 0.0), circuit_error);
    EXPECT_THROW(c.add<mosfet>("mbad", a, a, a, a, mosfet_model{}, 0.0, 1e-6), circuit_error);
}

TEST(device, duplicate_name_rejected)
{
    circuit c;
    const node_id a = c.node("a");
    c.add<resistor>("r1", a, ground_node, 50.0);
    EXPECT_THROW(c.add<resistor>("r1", a, ground_node, 60.0), circuit_error);
}

TEST(device, remove_device)
{
    circuit c;
    const node_id a = c.node("a");
    c.add<resistor>("r1", a, ground_node, 50.0);
    c.add<resistor>("r2", a, ground_node, 70.0);
    c.remove_device("r1");
    EXPECT_EQ(c.find_device("r1"), nullptr);
    EXPECT_NE(c.find_device("r2"), nullptr);
    EXPECT_THROW(c.remove_device("r1"), circuit_error);
}

TEST(junction, pnjlim_clamps_big_steps)
{
    const real vt = thermal_voltage();
    const real vcrit = junction_vcrit(1e-14, vt);
    int noncon = 0;
    // Huge jump above vcrit is log-compressed, and reported.
    const real limited = pnjlim(5.0, 0.6, vt, vcrit, noncon);
    EXPECT_LT(limited, 0.8);
    EXPECT_GT(limited, 0.6);
    EXPECT_EQ(noncon, 1);
    // Small steps pass through.
    EXPECT_NEAR(pnjlim(0.62, 0.6, vt, vcrit, noncon), 0.62, 1e-15);
    // Negative voltages pass through.
    EXPECT_NEAR(pnjlim(-3.0, 0.0, vt, vcrit, noncon), -3.0, 1e-15);
    EXPECT_EQ(noncon, 1);
}

TEST(junction, capacitance_model)
{
    // Below fc*vj: classic power law; above: linearized, continuous.
    const real cj0 = 1e-12;
    const real vj = 0.8;
    const real m = 0.5;
    EXPECT_NEAR(junction_capacitance(0.0, cj0, vj, m), cj0, 1e-18);
    EXPECT_NEAR(junction_capacitance(-0.8, cj0, vj, m), cj0 / std::sqrt(2.0), 1e-18);
    const real at_fc = junction_capacitance(0.4 - 1e-9, cj0, vj, m);
    const real above_fc = junction_capacitance(0.4 + 1e-9, cj0, vj, m);
    EXPECT_NEAR(at_fc, above_fc, 1e-17);
    // Monotonically increasing in forward bias.
    EXPECT_GT(junction_capacitance(0.7, cj0, vj, m), junction_capacitance(0.5, cj0, vj, m));
}

TEST(junction, exp_overflow_guard)
{
    const auto jc = junction_exp(10.0, 1e-14, thermal_voltage());
    EXPECT_TRUE(std::isfinite(jc.i));
    EXPECT_TRUE(std::isfinite(jc.g));
    EXPECT_GT(jc.g, 0.0);
}

TEST(bjt, small_signal_gm_equals_ic_over_vt)
{
    circuit c;
    const node_id vcc = c.node("vcc");
    const node_id b = c.node("b");
    const node_id col = c.node("col");
    c.add<vsource>("vcc_s", vcc, ground_node, 5.0);
    c.add<vsource>("vb", b, ground_node, 0.65);
    bjt_model npn;
    npn.is = 1e-16;
    npn.bf = 100.0;
    auto& q = c.add<bjt>("q1", col, b, ground_node, npn);
    c.add<resistor>("rc", vcc, col, 10e3);
    const dc_result op = dc_operating_point(c);
    const bjt_small_signal ss = q.small_signal(op.solution);
    EXPECT_GT(ss.ic, 1e-6);
    EXPECT_NEAR(ss.gm, ss.ic / thermal_voltage(), ss.gm * 1e-3);
    EXPECT_NEAR(ss.gpi, ss.gm / npn.bf, ss.gpi * 1e-3);
}

TEST(bjt, early_effect_gives_output_conductance)
{
    bjt_model with_vaf;
    with_vaf.vaf = 50.0;
    bjt_model without = with_vaf;
    without.vaf = 0.0;

    const auto run = [](const bjt_model& m) {
        circuit c;
        const node_id vcc = c.node("vcc");
        const node_id b = c.node("b");
        const node_id col = c.node("col");
        c.add<vsource>("vcc_s", vcc, ground_node, 5.0);
        c.add<vsource>("vb", b, ground_node, 0.65);
        auto& q = c.add<bjt>("q1", col, b, ground_node, m);
        c.add<resistor>("rc", vcc, col, 10e3);
        const dc_result op = dc_operating_point(c);
        return q.small_signal(op.solution).go;
    };
    EXPECT_GT(run(with_vaf), 10.0 * std::max(run(without), 1e-15));
}

TEST(bjt, pnp_mirror_symmetry)
{
    // A PNP diode from the 5 V rail must bias near vdd - 0.6..0.7.
    circuit c;
    const node_id vcc = c.node("vcc");
    const node_id d = c.node("d");
    c.add<vsource>("vcc_s", vcc, ground_node, 5.0);
    bjt_model pnp;
    pnp.polarity = bjt_polarity::pnp;
    pnp.is = 1e-16;
    c.add<bjt>("q1", d, d, vcc, pnp);
    c.add<resistor>("rsink", d, ground_node, 43e3); // ~0.1 mA
    const dc_result op = dc_operating_point(c);
    const real vd = node_voltage(c, op.solution, "d");
    EXPECT_GT(vd, 4.2);
    EXPECT_LT(vd, 4.5);
}

TEST(bjt, terminal_currents_sum_to_zero)
{
    circuit c;
    const node_id vcc = c.node("vcc");
    const node_id b = c.node("b");
    const node_id col = c.node("col");
    c.add<vsource>("vcc_s", vcc, ground_node, 3.0);
    c.add<vsource>("vb", b, ground_node, 0.68);
    bjt_model npn;
    auto& q = c.add<bjt>("q1", col, b, ground_node, npn);
    c.add<resistor>("rc", vcc, col, 5e3);
    const dc_result op = dc_operating_point(c);
    const bjt_small_signal ss = q.small_signal(op.solution);
    // ie = -(ic + ib) is implicit in the model; check ic/ib ratio ~ beta.
    EXPECT_NEAR(ss.ic / ss.ib, npn.bf, npn.bf * 0.05);
}

/// Currents the stamped linear model predicts at terminal voltages v:
/// row i of A v - b (the current leaving node i into the device).
std::vector<real> predicted_currents(const system_builder<real>& b, const std::vector<real>& v)
{
    std::vector<real> out(b.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = -b.rhs()[i];
    for (const auto& e : b.matrix().entries())
        out[e.row] += e.value * v[e.col];
    return out;
}

void expect_bjt_currents(const std::vector<real>& got, const bjt_small_signal& want)
{
    const real tol = 1e-9 * std::fabs(want.ic) + 1e-18;
    EXPECT_NEAR(got[0], want.ic, tol);
    EXPECT_NEAR(got[1], want.ib, tol);
    EXPECT_NEAR(got[2], -(want.ic + want.ib), tol);
}

TEST(bjt, limited_stamp_reproduces_the_currents_at_the_limited_voltages)
{
    // Unknowns 0, 1, 2 = collector, base, emitter (no ground terminal).
    for (const bjt_polarity pol : {bjt_polarity::npn, bjt_polarity::pnp}) {
        SCOPED_TRACE(pol == bjt_polarity::npn ? "npn" : "pnp");
        bjt_model m;
        m.polarity = pol;
        m.vaf = 50.0;
        const real s = pol == bjt_polarity::npn ? 1.0 : -1.0;
        bjt q("q", 0, 1, 2, m);
        const stamp_params p{.gmin = 0.0};

        // Settle the limiter history at a moderate forward bias.
        system_builder<real> warm(3);
        q.stamp_dc({s * 2.0, s * 0.6, 0.0}, p, warm);
        EXPECT_EQ(p.noncon, 0);

        // A 3 V base step: pnjlim moves vbe, vbc (-2 V) passes through.
        const std::vector<real> x = {s * 5.0, s * 3.0, 0.0};
        system_builder<real> b(3);
        q.stamp_dc(x, p, b);
        EXPECT_EQ(p.noncon, 1);

        const real vt = thermal_voltage(m.temp);
        int unused = 0;
        const real vbe_lim = pnjlim(3.0, 0.6, vt, junction_vcrit(m.is, vt), unused);
        ASSERT_LT(vbe_lim, 1.0);
        const std::vector<real> v_lim = {x[0], x[1], x[1] - s * vbe_lim};
        expect_bjt_currents(predicted_currents(b, v_lim), q.small_signal(v_lim));
    }
}

TEST(mosfet, limited_stamp_reproduces_the_current_at_the_limited_voltages)
{
    // Unknowns 0..3 = drain, gate, source, bulk. From vgs = 1.5 V a 10 V
    // gate step is held to vto + 4 (SPICE3 fetlim, middle region); vgd is
    // kept, so vds = 4.7 - (10 - 7) = 1.7 V, inside limvds' window.
    for (const mos_polarity pol : {mos_polarity::nmos, mos_polarity::pmos}) {
        SCOPED_TRACE(pol == mos_polarity::nmos ? "nmos" : "pmos");
        mosfet_model m;
        m.polarity = pol;
        m.gamma = 0.4;
        const real s = pol == mos_polarity::nmos ? 1.0 : -1.0;
        mosfet q("m", 0, 1, 2, 3, m, 20e-6, 2e-6);
        const stamp_params p{.gmin = 0.0};

        // Settle the limiter history: the first stamp turns the channel
        // on to vto + 0.5 only, the second reaches vgs = 1.5 V unlimited.
        system_builder<real> warm(4);
        q.stamp_dc({s * 2.0, s * 1.5, 0.0, 0.0}, p, warm);
        EXPECT_EQ(p.noncon, 1);
        p.noncon = 0;
        q.stamp_dc({s * 2.0, s * 1.5, 0.0, 0.0}, p, warm);
        EXPECT_EQ(p.noncon, 0);

        system_builder<real> b(4);
        q.stamp_dc({s * 7.0, s * 10.0, 0.0, 0.0}, p, b);
        EXPECT_GE(p.noncon, 1);

        const std::vector<real> v_lim = {s * 1.7, s * (m.vto + 4.0), 0.0, 0.0};
        const real id = q.small_signal(v_lim).id;
        ASSERT_GT(std::fabs(id), 0.0);
        const std::vector<real> got = predicted_currents(b, v_lim);
        EXPECT_NEAR(got[0], id, 1e-9 * std::fabs(id));
        EXPECT_NEAR(got[1], 0.0, 1e-9 * std::fabs(id));
        EXPECT_NEAR(got[2], -id, 1e-9 * std::fabs(id));
        EXPECT_NEAR(got[3], 0.0, 1e-9 * std::fabs(id));
    }
}

TEST(junction_init, first_dc_stamp_after_dc_begin_starts_at_vcrit)
{
    // MODEINITJCT: whatever the guess, the first stamp of a DC solve
    // linearizes the BE junction at V_crit and the BC junction at 0, and
    // counts one noncon; the next stamp follows the guess again.
    bjt_model m;
    bjt q("q", 0, 1, 2, m);
    const real vt = thermal_voltage(m.temp);
    const real vcrit = junction_vcrit(m.is, vt);
    const stamp_params p{.gmin = 0.0};
    q.dc_begin();
    system_builder<real> b(3);
    q.stamp_dc({0.0, 0.0, 0.0}, p, b);
    EXPECT_EQ(p.noncon, 1);
    const std::vector<real> v_init = {0.0, 0.0, -vcrit};
    expect_bjt_currents(predicted_currents(b, v_init), q.small_signal(v_init));

    p.noncon = 0;
    system_builder<real> again(3);
    q.stamp_dc({0.0, 0.0, 0.0}, p, again);
    EXPECT_EQ(p.noncon, 0);

    diode_model dm;
    diode d("d", 0, 1, dm);
    const real dvcrit = junction_vcrit(dm.is, vt);
    d.dc_begin();
    p.noncon = 0;
    system_builder<real> bd(2);
    d.stamp_dc({0.0, 0.0}, p, bd);
    EXPECT_EQ(p.noncon, 1);
    const std::vector<real> i_init = predicted_currents(bd, {dvcrit, 0.0});
    const real id = dm.is * (std::exp(dvcrit / vt) - 1.0);
    EXPECT_NEAR(i_init[0], id, 1e-9 * id);
    EXPECT_NEAR(i_init[1], -id, 1e-9 * id);
}

TEST(mosfet, region_classification)
{
    mosfet_model nm;
    nm.vto = 0.7;
    nm.kp = 100e-6;
    nm.lambda = 0.0;
    nm.gamma = 0.0;
    circuit c;
    auto& m = c.add<mosfet>("m1", c.node("d"), c.node("g"), ground_node, ground_node, nm,
                            10e-6, 1e-6);
    c.finalize();
    std::vector<real> x(c.unknown_count(), 0.0);
    const auto at = [&](real vg, real vd) {
        x[static_cast<std::size_t>(*c.find_node("g"))] = vg;
        x[static_cast<std::size_t>(*c.find_node("d"))] = vd;
        return m.small_signal(x);
    };
    EXPECT_EQ(at(0.3, 2.0).region, 0); // cutoff
    EXPECT_EQ(at(1.7, 0.3).region, 1); // triode (vov = 1.0 > vds)
    EXPECT_EQ(at(1.2, 2.0).region, 2); // saturation
    // Saturation current value.
    EXPECT_NEAR(at(1.7, 2.0).id, 0.5 * 100e-6 * 10.0 * 1.0, 1e-9);
    // Triode current value at vds = 0.3.
    EXPECT_NEAR(at(1.7, 0.3).id, 100e-6 * 10.0 * (1.0 * 0.3 - 0.045), 1e-9);
}

TEST(mosfet, drain_source_reversal_is_symmetric)
{
    mosfet_model nm;
    nm.vto = 0.7;
    nm.kp = 100e-6;
    nm.lambda = 0.0;
    nm.gamma = 0.0;
    circuit c;
    auto& m = c.add<mosfet>("m1", c.node("d"), c.node("g"), c.node("s"), ground_node, nm,
                            10e-6, 1e-6);
    c.finalize();
    std::vector<real> x(c.unknown_count(), 0.0);
    const auto id_at = [&](real vd, real vg, real vs) {
        x[static_cast<std::size_t>(*c.find_node("d"))] = vd;
        x[static_cast<std::size_t>(*c.find_node("g"))] = vg;
        x[static_cast<std::size_t>(*c.find_node("s"))] = vs;
        return m.small_signal(x).id;
    };
    // Swapping drain and source negates the current.
    EXPECT_NEAR(id_at(0.2, 1.5, 0.0), -id_at(0.0, 1.5, 0.2), 1e-12);
}

TEST(mosfet, body_effect_raises_threshold)
{
    mosfet_model nm;
    nm.vto = 0.7;
    nm.kp = 100e-6;
    nm.lambda = 0.0;
    nm.gamma = 0.5;
    nm.phi = 0.7;
    circuit c;
    auto& m = c.add<mosfet>("m1", c.node("d"), c.node("g"), c.node("s"), c.node("b"), nm,
                            10e-6, 1e-6);
    c.finalize();
    std::vector<real> x(c.unknown_count(), 0.0);
    const auto id_at = [&](real vb) {
        x[static_cast<std::size_t>(*c.find_node("d"))] = 2.0;
        x[static_cast<std::size_t>(*c.find_node("g"))] = 1.5;
        x[static_cast<std::size_t>(*c.find_node("b"))] = vb;
        return m.small_signal(x).id;
    };
    // Reverse body bias (vb < vs = 0) reduces the current.
    EXPECT_LT(id_at(-2.0), id_at(0.0));
    EXPECT_GT(id_at(-2.0), 0.0);
}

TEST(mosfet, meyer_caps_by_region)
{
    mosfet_model nm;
    nm.vto = 0.7;
    nm.kp = 100e-6;
    nm.cox = 2e-3;
    nm.cgso = 0.0;
    nm.cgdo = 0.0;
    nm.gamma = 0.0;
    circuit c;
    auto& m = c.add<mosfet>("m1", c.node("d"), c.node("g"), ground_node, ground_node, nm,
                            10e-6, 1e-6);
    c.finalize();
    std::vector<real> x(c.unknown_count(), 0.0);
    const real cox_total = 2e-3 * 10e-6 * 1e-6;
    const auto ss_at = [&](real vg, real vd) {
        x[static_cast<std::size_t>(*c.find_node("g"))] = vg;
        x[static_cast<std::size_t>(*c.find_node("d"))] = vd;
        return m.small_signal(x);
    };
    const auto cutoff = ss_at(0.0, 1.0);
    EXPECT_NEAR(cutoff.cgb, cox_total, 1e-20);
    const auto sat = ss_at(1.2, 2.0);
    EXPECT_NEAR(sat.cgs, 2.0 / 3.0 * cox_total, 1e-20);
    EXPECT_NEAR(sat.cgd, 0.0, 1e-20);
    const auto triode = ss_at(2.0, 0.1);
    EXPECT_NEAR(triode.cgs, 0.5 * cox_total, 1e-20);
    EXPECT_NEAR(triode.cgd, 0.5 * cox_total, 1e-20);
}

TEST(diode, capacitance_components)
{
    diode_model dm;
    dm.cj0 = 1e-12;
    dm.tt = 1e-9;
    circuit c;
    auto& d = c.add<diode>("d1", c.node("a"), ground_node, dm);
    c.finalize();
    // Reverse bias: depletion only.
    EXPECT_NEAR(d.capacitance_at(-1.0), junction_capacitance(-1.0, 1e-12, 1.0, 0.5), 1e-20);
    // Forward bias adds diffusion capacitance tt * gd.
    const real cfwd = d.capacitance_at(0.65);
    EXPECT_GT(cfwd, 10.0 * d.capacitance_at(-1.0));
    EXPECT_NEAR(cfwd - junction_capacitance(0.65, 1e-12, 1.0, 0.5),
                1e-9 * d.conductance_at(0.65), 1e-18);
}

TEST(circuit, node_registry)
{
    circuit c;
    const node_id a = c.node("a");
    EXPECT_EQ(c.node("a"), a);
    EXPECT_EQ(c.node("0"), ground_node);
    EXPECT_EQ(c.node("gnd"), ground_node);
    EXPECT_EQ(c.node_name(a), "a");
    EXPECT_EQ(c.node_name(ground_node), "0");
    EXPECT_FALSE(c.find_node("zzz").has_value());
    EXPECT_EQ(c.node_count(), 1u);
}

TEST(circuit, source_forced_nodes_through_chains)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id b = c.node("b");
    const node_id free = c.node("free");
    c.add<vsource>("v1", a, ground_node, 1.0);
    c.add<vsource>("v2", b, a, 1.0); // chained through v1
    c.add<resistor>("r1", b, free, 1e3);
    c.add<resistor>("r2", free, ground_node, 1e3);
    c.finalize();
    const std::vector<bool> forced = c.source_forced_nodes();
    EXPECT_TRUE(forced[static_cast<std::size_t>(a)]);
    EXPECT_TRUE(forced[static_cast<std::size_t>(b)]);
    EXPECT_FALSE(forced[static_cast<std::size_t>(free)]);
}

} // namespace
