#include "analysis/loop_gain.h"

#include "common/error.h"
#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "spice/devices/sources.h"

namespace acstab::analysis {

loop_gain_result measure_loop_gain(spice::circuit& c, const std::string& probe_vsource,
                                   const std::vector<real>& freqs_hz,
                                   const loop_gain_options& opt)
{
    auto* probe = dynamic_cast<spice::vsource*>(c.find_device(probe_vsource));
    if (probe == nullptr)
        throw analysis_error("loop gain: probe vsource '" + probe_vsource + "' not found");
    if (probe->spec().dc != 0.0)
        throw analysis_error("loop gain: probe '" + probe_vsource + "' must be a 0 V source");

    c.finalize();
    const spice::node_id node_x = probe->nodes()[0];
    const spice::node_id node_y = probe->nodes()[1];
    if (node_x < 0 || node_y < 0)
        throw analysis_error("loop gain: probe must not touch ground");

    spice::dc_options dc = opt.dc;
    dc.gmin = opt.gmin;
    const spice::dc_result op = spice::dc_operating_point(c, dc);

    // Both injections act on the same zero-stimulus linearized system and
    // differ only in the right-hand side, so one engine pass covers them:
    //   rhs 0 — voltage injection: 1 V AC on the probe's branch equation;
    //   rhs 1 — current injection: 1 A AC into the receiving node y.
    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);

    const std::size_t branch = static_cast<std::size_t>(probe->branch());
    const std::vector<engine::sweep_engine::injection> injections{
        {branch, cplx{1.0, 0.0}}, {static_cast<std::size_t>(node_y), cplx{1.0, 0.0}}};

    loop_gain_result out;
    // Only three solution entries matter; extract them in the sink
    // instead of copying whole solution vectors out of the engine.
    std::vector<cplx> vx, vy, ii;
    if (opt.adaptive) {
        // The passed grid defines band and output density; both injections
        // refine on one shared grid (worst-channel error decides).
        engine::adaptive_sweep_options aopt = engine::adaptive_options_for_grid(freqs_hz);
        aopt.anchors_per_decade = opt.anchors_per_decade;
        aopt.fit_tol = opt.fit_tol;
        aopt.engine.threads = opt.threads;
        const engine::adaptive_sweep_result res = engine::adaptive_sweep(aopt).run_injections(
            snap, injections,
            {{0, static_cast<std::size_t>(node_x)}, {0, static_cast<std::size_t>(node_y)},
             {1, branch}});
        out.freq_hz = res.freq_hz;
        out.factorizations = res.factorizations;
        vx = res.values[0];
        vy = res.values[1];
        ii = res.values[2];
    } else {
        engine::sweep_engine_options eopt;
        eopt.threads = opt.threads;
        const engine::sweep_engine eng(eopt);
        out.freq_hz = freqs_hz;
        out.factorizations = freqs_hz.size();
        vx.resize(freqs_hz.size());
        vy.resize(freqs_hz.size());
        ii.resize(freqs_hz.size());
        eng.run_injections(snap, freqs_hz, injections,
                           [&vx, &vy, &ii, node_x, node_y, branch](std::size_t fi,
                                                                   std::size_t ri,
                                                                   std::span<const cplx> sol) {
                               if (ri == 0) {
                                   vx[fi] = sol[static_cast<std::size_t>(node_x)];
                                   vy[fi] = sol[static_cast<std::size_t>(node_y)];
                               } else {
                                   ii[fi] = sol[branch];
                               }
                           });
    }

    out.tv.resize(out.freq_hz.size());
    out.ti.resize(out.freq_hz.size());
    out.t.resize(out.freq_hz.size());
    for (std::size_t k = 0; k < out.freq_hz.size(); ++k) {
        const cplx tv = -vx[k] / vy[k];
        // Probe branch current flows plus(x) -> minus(y); with 1 A pushed
        // into y, the B-side current is i + 1.
        const cplx ti = -ii[k] / (ii[k] + cplx{1.0, 0.0});
        out.tv[k] = tv;
        out.ti[k] = ti;
        out.t[k] = (tv * ti - cplx{1.0, 0.0}) / (tv + ti + cplx{2.0, 0.0});
    }
    out.margins = spice::margins(out.freq_hz, out.t);
    return out;
}

} // namespace acstab::analysis
