// DC operating-point analysis: linear networks with closed-form answers,
// nonlinear bias points, continuation fallbacks and failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "common/error.h"
#include "circuits/bias.h"
#include "circuits/followers.h"
#include "circuits/opamp.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/devices/bjt.h"
#include "spice/devices/controlled.h"
#include "spice/devices/diode.h"
#include "spice/devices/junction.h"
#include "spice/devices/mosfet.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/parser/netlist_parser.h"
#include "gen/netlist_gen.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;
using namespace acstab::spice;

TEST(dc, resistor_divider)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id mid = c.node("mid");
    c.add<vsource>("v1", in, ground_node, 10.0);
    c.add<resistor>("r1", in, mid, 1e3);
    c.add<resistor>("r2", mid, ground_node, 3e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "mid"), 7.5, 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "in"), 10.0, 1e-12);
}

TEST(dc, vsource_branch_current)
{
    circuit c;
    const node_id in = c.node("in");
    auto& v1 = c.add<vsource>("v1", in, ground_node, 5.0);
    c.add<resistor>("r1", in, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    // Current flows plus->through source->minus: -5 mA out of the source.
    EXPECT_NEAR(op.solution[static_cast<std::size_t>(v1.branch())], -5e-3, 1e-9);
}

TEST(dc, current_source_into_resistor)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 2e-3);
    c.add<resistor>("r1", n, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "n"), 2.0, 1e-9);
}

TEST(dc, inductor_is_short_capacitor_is_open)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id b = c.node("b");
    const node_id d = c.node("d");
    c.add<vsource>("v1", a, ground_node, 4.0);
    c.add<inductor>("l1", a, b, 1e-3);
    c.add<resistor>("r1", b, ground_node, 1e3);
    c.add<capacitor>("c1", b, d, 1e-9);
    c.add<resistor>("r2", d, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "b"), 4.0, 1e-9);  // short
    EXPECT_NEAR(node_voltage(c, op.solution, "d"), 0.0, 1e-6);  // open
}

TEST(dc, controlled_sources)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id e_out = c.node("eo");
    const node_id g_out = c.node("go");
    c.add<vsource>("v1", in, ground_node, 2.0);
    c.add<resistor>("rin", in, ground_node, 1e6);
    c.add<vcvs>("e1", e_out, ground_node, in, ground_node, 3.0);
    c.add<resistor>("re", e_out, ground_node, 1e3);
    c.add<vccs>("gm1", ground_node, g_out, in, ground_node, 1e-3);
    c.add<resistor>("rg", g_out, ground_node, 2e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "eo"), 6.0, 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "go"), 4.0, 1e-9); // 2 mA * 2 k
}

TEST(dc, current_controlled_sources)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id f_out = c.node("fo");
    const node_id h_out = c.node("ho");
    c.add<vsource>("vsense", a, ground_node, 1.0);
    c.add<resistor>("ra", a, ground_node, 1e3); // sense current -1 mA through vsense
    c.add<cccs>("f1", ground_node, f_out, "vsense", 2.0);
    c.add<resistor>("rf", f_out, ground_node, 1e3);
    c.add<ccvs>("h1", h_out, ground_node, "vsense", 4e3);
    c.add<resistor>("rh", h_out, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    // vsense branch current = -1 mA (see vsource_branch_current).
    EXPECT_NEAR(node_voltage(c, op.solution, "fo"), -2.0, 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "ho"), -4.0, 1e-9);
}

TEST(dc, diode_forward_drop)
{
    circuit c;
    const node_id a = c.node("a");
    c.add<vsource>("v1", a, ground_node, 5.0);
    const node_id k = c.node("k");
    c.add<resistor>("r1", a, k, 10e3);
    diode_model dm;
    dm.is = 1e-14;
    c.add<diode>("d1", k, ground_node, dm);
    const dc_result op = dc_operating_point(c);
    const real vd = node_voltage(c, op.solution, "k");
    EXPECT_GT(vd, 0.5);
    EXPECT_LT(vd, 0.75);
    // KCL: resistor current equals diode current.
    const real ir = (5.0 - vd) / 10e3;
    const real id = dm.is * (std::exp(vd / thermal_voltage()) - 1.0);
    EXPECT_NEAR(ir, id, ir * 2e-3);
}

TEST(dc, diode_reverse_blocks)
{
    circuit c;
    const node_id a = c.node("a");
    c.add<vsource>("v1", a, ground_node, -5.0);
    const node_id k = c.node("k");
    c.add<resistor>("r1", a, k, 10e3);
    c.add<diode>("d1", k, ground_node);
    const dc_result op = dc_operating_point(c);
    // Almost the full -5 V appears across the diode.
    EXPECT_LT(node_voltage(c, op.solution, "k"), -4.99);
}

TEST(dc, bjt_current_mirror_ratio)
{
    circuit c;
    const node_id vcc = c.node("vcc");
    const node_id ref = c.node("ref");
    const node_id out = c.node("out");
    c.add<vsource>("vcc_s", vcc, ground_node, 5.0);
    c.add<isource>("iref", vcc, ref, 100e-6);
    bjt_model npn;
    npn.is = 1e-16;
    npn.bf = 200.0;
    c.add<bjt>("q1", ref, ref, ground_node, npn);
    bjt_model npn2 = npn;
    npn2.is = 2e-16; // 2x area
    c.add<bjt>("q2", out, ref, ground_node, npn2);
    c.add<resistor>("rl", vcc, out, 10e3);
    const dc_result op = dc_operating_point(c);
    // Mirror doubles the current: V(out) = 5 - 0.2 mA * 10 k = 3 V.
    EXPECT_NEAR(node_voltage(c, op.solution, "out"), 3.0, 0.1);
}

TEST(dc, mosfet_saturation_current)
{
    circuit c;
    const node_id vdd = c.node("vdd");
    const node_id g = c.node("g");
    const node_id d = c.node("d");
    c.add<vsource>("vdd_s", vdd, ground_node, 5.0);
    c.add<vsource>("vg", g, ground_node, 1.5);
    mosfet_model nm;
    nm.vto = 0.7;
    nm.kp = 100e-6;
    nm.lambda = 0.0;
    nm.gamma = 0.0;
    c.add<mosfet>("m1", d, g, ground_node, ground_node, nm, 20e-6, 2e-6);
    c.add<resistor>("rd", vdd, d, 10e3);
    const dc_result op = dc_operating_point(c);
    // id = 0.5*kp*(W/L)*(vgs-vth)^2 = 0.5*1e-4*10*0.64 = 320 uA.
    EXPECT_NEAR(node_voltage(c, op.solution, "d"), 5.0 - 0.32e-3 * 1e4, 0.02);
}

TEST(dc, pmos_source_follower_polarity)
{
    circuit c;
    const node_id vdd = c.node("vdd");
    const node_id g = c.node("g");
    const node_id s = c.node("s");
    c.add<vsource>("vdd_s", vdd, ground_node, 5.0);
    c.add<vsource>("vg", g, ground_node, 2.5);
    mosfet_model pm;
    pm.polarity = mos_polarity::pmos;
    pm.vto = 0.8;
    pm.kp = 50e-6;
    pm.lambda = 0.0;
    pm.gamma = 0.0;
    // PMOS with source pulled down by a resistor: source settles about
    // one |vgs| above the gate.
    c.add<mosfet>("mp", ground_node, g, s, vdd, pm, 50e-6, 1e-6);
    c.add<resistor>("rs", vdd, s, 10e3);
    const dc_result op = dc_operating_point(c);
    const real vs = node_voltage(c, op.solution, "s");
    EXPECT_GT(vs, 3.3);
    EXPECT_LT(vs, 3.9);
}

TEST(dc, floating_node_resolved_by_gshunt_retry)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id fl = c.node("floating");
    c.add<vsource>("v1", a, ground_node, 1.0);
    c.add<resistor>("r1", a, ground_node, 1e3);
    // This node only connects through a capacitor: singular at DC.
    c.add<capacitor>("c1", a, fl, 1e-12);
    const dc_result op = dc_operating_point(c);
    EXPECT_TRUE(op.used_gshunt);
    EXPECT_NEAR(node_voltage(c, op.solution, "a"), 1.0, 1e-9);
}

TEST(dc, bias_generator_finds_the_intended_state)
{
    // The self-biased reference also has a zero-current equilibrium; the
    // DC solve must find the intended ~10 uA state. (Starting the
    // junctions at V_crit gets there without continuation.)
    circuit c;
    circuits::build_standalone_bias(c);
    const dc_result op = dc_operating_point(c);
    const real vbe = node_voltage(c, op.solution, "b_vbe");
    EXPECT_GT(vbe, 0.55);
    EXPECT_LT(vbe, 0.75);
}

TEST(dc, non_convergence_error_reports_the_attempted_ladder)
{
    // Two ideal sources forcing different voltages onto one node: the MNA
    // system is inconsistent at every continuation rung, so the whole
    // ladder runs dry. The error must say what was tried — each rung's
    // gshunt value and where its Newton loop gave up — not just "did not
    // converge".
    circuit c;
    const node_id n = c.node("n");
    c.add<vsource>("v1", n, ground_node, 1.0);
    c.add<vsource>("v2", n, ground_node, 2.0);
    try {
        (void)dc_operating_point(c);
        FAIL() << "conflicting sources must not converge";
    } catch (const convergence_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("attempted:"), std::string::npos) << what;
        EXPECT_NE(what.find("plain Newton (gshunt=0)"), std::string::npos) << what;
        EXPECT_NE(what.find("gshunt=1e-09"), std::string::npos) << what;
        EXPECT_NE(what.find("singular matrix"), std::string::npos) << what;
        EXPECT_NE(what.find("gmin stepping"), std::string::npos) << what;
        EXPECT_NE(what.find("source stepping"), std::string::npos) << what;
    }
}

TEST(dc, ladder_reports_disabled_strategies)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<vsource>("v1", n, ground_node, 1.0);
    c.add<vsource>("v2", n, ground_node, 2.0);
    dc_options opt;
    opt.allow_gmin_stepping = false;
    opt.allow_source_stepping = false;
    try {
        (void)dc_operating_point(c, opt);
        FAIL() << "conflicting sources must not converge";
    } catch (const convergence_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("gmin stepping: disabled"), std::string::npos) << what;
        EXPECT_NE(what.find("source stepping: disabled"), std::string::npos) << what;
    }
}

TEST(dc, tolerances_are_respected)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 1e-3);
    c.add<resistor>("r1", n, ground_node, 1e3);
    dc_options opt;
    opt.max_iterations = 3; // linear: converges immediately regardless
    const dc_result op = dc_operating_point(c, opt);
    EXPECT_LE(op.iterations, 3);
}

TEST(dc, unknown_node_query_throws)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 1e-3);
    c.add<resistor>("r1", n, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_THROW(static_cast<void>(node_voltage(c, op.solution, "nope")), analysis_error);
}

spice::parsed_netlist parse_shipped(const std::string& name, const parse_options& opt = {})
{
    return parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/" + name, opt);
}

TEST(dc, follower_converges_from_zero_without_the_ladder)
{
    // The one-transistor follower used to take 141 iterations: the BJT
    // companion current was built about the unlimited terminal voltages
    // while the device was evaluated at the limited ones.
    auto net = parse_shipped("follower.sp");
    const dc_result op = dc_operating_point(net.ckt);
    EXPECT_LE(op.iterations, 10);
    EXPECT_FALSE(op.used_gmin_stepping);
    EXPECT_FALSE(op.used_source_stepping);
    EXPECT_FALSE(op.used_gshunt);
    EXPECT_NEAR(node_voltage(net.ckt, op.solution, "f_out"), 1.66257, 1e-4);
}

/// Largest ratio, over node rows, of the net current into the node to
/// reltol times the sum of the magnitudes of the currents meeting there
/// (plus abstol). Every device is linearized at x itself (no limiting),
/// so row i of A x - b is exactly the KCL sum at node i.
real kcl_ratio(circuit& c, const std::vector<real>& x)
{
    constexpr real reltol = 1e-3;
    constexpr real abstol = 1e-12;
    const std::size_t n = c.unknown_count();
    system_builder<real> b(n);
    const stamp_params p{.gmin = 1e-12, .limit = false};
    for (const auto& dev : c.devices())
        dev->stamp_dc(x, p, b);
    std::vector<real> net(n, 0.0);
    std::vector<real> mag(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        net[i] = -b.rhs()[i];
        mag[i] = std::fabs(b.rhs()[i]);
    }
    for (const auto& e : b.matrix().entries()) {
        net[e.row] += e.value * x[e.col];
        mag[e.row] += std::fabs(e.value * x[e.col]);
    }
    real worst = 0.0;
    for (std::size_t i = 0; i < c.node_count(); ++i)
        worst = std::max(worst, std::fabs(net[i]) / (reltol * mag[i] + abstol));
    return worst;
}

TEST(dc, operating_points_satisfy_kcl_across_temperature_and_solvers)
{
    // Every nonlinear fixture at three temperatures, with the sparse
    // product solver and the dense oracle: the returned point satisfies
    // KCL, needs no continuation, and the two solvers agree to within the
    // Newton tolerance. Fixtures without a temperature input (the
    // followers and the MOSFET circuits) repeat unchanged.
    using builder = std::function<void(circuit&, real)>;
    const std::vector<std::pair<std::string, builder>> fixtures = {
        {"follower.sp",
         [](circuit& c, real t) {
             parse_options po;
             po.temp_celsius = t;
             c = std::move(parse_shipped("follower.sp", po).ckt);
         }},
        {"zero_tc_bias",
         [](circuit& c, real t) {
             circuits::bias_params bp;
             bp.temp_celsius = t;
             (void)circuits::build_standalone_bias(c, bp);
         }},
        {"emitter_follower", [](circuit& c, real) { (void)circuits::build_emitter_follower(c); }},
        {"source_follower", [](circuit& c, real) { (void)circuits::build_source_follower(c); }},
        {"current_mirror", [](circuit& c, real) { (void)circuits::build_current_mirror(c); }},
        {"opamp_buffer", [](circuit& c, real) { (void)circuits::build_opamp_buffer(c); }},
        {"opamp_open_loop", [](circuit& c, real) { (void)circuits::build_opamp_open_loop(c); }},
    };
    for (const auto& [name, build] : fixtures) {
        for (const real temp : {-40.0, 27.0, 125.0}) {
            std::vector<real> first;
            for (const solver_kind kind : {solver_kind::sparse, solver_kind::dense}) {
                SCOPED_TRACE(name + " at " + std::to_string(temp) + " C, "
                             + (kind == solver_kind::sparse ? "sparse" : "dense"));
                circuit c;
                build(c, temp);
                dc_options opt;
                opt.solver = kind;
                const dc_result op = dc_operating_point(c, opt);
                EXPECT_FALSE(op.used_gmin_stepping);
                EXPECT_FALSE(op.used_source_stepping);
                EXPECT_LE(kcl_ratio(c, op.solution), 1.0);
                if (first.empty()) {
                    first = op.solution;
                    continue;
                }
                for (std::size_t i = 0; i < c.node_count(); ++i)
                    EXPECT_NEAR(op.solution[i], first[i], 1e-3 * std::fabs(first[i]) + 1e-6);
            }
        }
    }
}

TEST(dc, circuits_without_junctions_keep_their_iteration_counts)
{
    // Linear circuits need no limiting: a zero operating point converges
    // on the first solve, any other on the second (which reuses the first
    // solve's factors).
    for (const char* name : {"rlc_tank.sp", "two_pole_loop.sp", "three_pole_loop.sp"}) {
        auto net = parse_shipped(name);
        EXPECT_EQ(dc_operating_point(net.ckt).iterations, 1) << name;
    }
    gen::gen_options g;
    g.size = 400;
    auto mesh = parse_netlist(gen::rcmesh_netlist(g));
    for (const solver_kind kind : {solver_kind::sparse, solver_kind::dense}) {
        dc_options opt;
        opt.solver = kind;
        EXPECT_EQ(dc_operating_point(mesh.ckt, opt).iterations, 2);
    }
}

/// A conductance whose Newton stamp disagrees with its exact one: 1 mS
/// while limiting is on, 2 mS when the residual check stamps it.
class inconsistent_conductance final : public device {
public:
    inconsistent_conductance(std::string name, node_id a) : device(std::move(name), {a}) {}
    [[nodiscard]] std::string_view type_name() const noexcept override { return "test"; }
    void stamp_dc(const std::vector<real>&, const stamp_params& p,
                  system_builder<real>& b) override
    {
        b.add(nodes()[0], nodes()[0], p.limit ? 1e-3 : 2e-3);
    }
    void stamp_ac(const std::vector<real>&, const ac_params&, system_builder<cplx>&) const override
    {
    }
};

TEST(dc, kcl_check_fails_every_rung_whose_point_violates_kcl)
{
    // Newton converges to 1 V on the 1 mS stamp, but at 1 V the exact
    // stamp leaves 1 mA unbalanced: no rung may accept that point.
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 1e-3);
    c.add<inconsistent_conductance>("g1", n);
    try {
        (void)dc_operating_point(c);
        FAIL() << "a point that violates KCL must not be accepted";
    } catch (const convergence_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("plain Newton (gshunt=0): converged, but the KCL residual"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("source stepping (gshunt=1e-09): converged, but the KCL residual"),
                  std::string::npos)
            << what;
    }
}

TEST(dc, iteration_count_sums_every_ladder_rung)
{
    // A floating node makes the plain rung singular on its first solve;
    // the gshunt retry then converges. Both rungs count.
    circuit c;
    const node_id a = c.node("a");
    const node_id fl = c.node("floating");
    c.add<vsource>("v1", a, ground_node, 1.0);
    c.add<resistor>("r1", a, ground_node, 1e3);
    c.add<capacitor>("c1", a, fl, 1e-12);
    const dc_result op = dc_operating_point(c);
    EXPECT_TRUE(op.used_gshunt);
    EXPECT_EQ(op.iterations, 1 + 2);
}

} // namespace
