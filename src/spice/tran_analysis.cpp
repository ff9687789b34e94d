#include "spice/tran_analysis.h"

#include <algorithm>

#include "spice/newton.h"

namespace acstab::spice {

namespace {

    /// Companion-model stamps for one Newton iterate; returns the pass's
    /// noncon count.
    int stamp_system(circuit& c, const std::vector<real>& x, const tran_params& p,
                     real gshunt, system_builder<real>& b)
    {
        p.dc.noncon = 0;
        for (const auto& dev : c.devices())
            dev->stamp_tran(x, p, b);
        if (gshunt > 0.0) {
            const std::size_t nodes = c.node_count();
            for (std::size_t i = 0; i < nodes; ++i)
                b.add(static_cast<node_id>(i), static_cast<node_id>(i), gshunt);
        }
        return p.dc.noncon;
    }

} // namespace

std::vector<real> tran_result::unknown_waveform(std::size_t index) const
{
    std::vector<real> out(solution.size());
    for (std::size_t k = 0; k < solution.size(); ++k)
        out[k] = solution[k][index];
    return out;
}

tran_result transient(circuit& c, const tran_options& opt)
{
    c.finalize();
    if (!(opt.tstop > 0.0))
        throw analysis_error("transient: tstop must be positive");
    const real dt_nominal = opt.dt > 0.0 ? opt.dt : opt.tstop / 1000.0;
    const real dt_min = dt_nominal * opt.dtmin_factor;

    // Initial operating point (sources at their t=0 DC values).
    const dc_result op = dc_operating_point(c, opt.dc);
    for (const auto& dev : c.devices())
        dev->tran_begin(op.solution);

    // Breakpoints from every source waveform.
    std::vector<real> breakpoints;
    for (const auto& dev : c.devices())
        dev->collect_breakpoints(opt.tstop, breakpoints);
    std::sort(breakpoints.begin(), breakpoints.end());
    breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()), breakpoints.end());

    // One shared symbolic factorization serves every Newton solve of the
    // run; the one-shot path re-factors from scratch per solve.
    newton_system sys(c.unknown_count(), opt.shared_solver, solver_kind::sparse);
    const newton_tolerances tol{.reltol = opt.reltol, .vntol = opt.vntol, .abstol = opt.abstol};

    tran_result res;
    res.time.push_back(0.0);
    res.solution.push_back(op.solution);

    std::vector<real> x = op.solution;
    real t = 0.0;
    std::size_t next_bp = 0;
    bool force_be = true; // BE kick at t = 0

    const stamp_params dc_params{.gmin = opt.dc.gmin};

    while (t < opt.tstop * (1.0 - 1e-12)) {
        real dt = std::min(dt_nominal, opt.tstop - t);
        // Land exactly on the next breakpoint.
        bool hits_bp = false;
        if (next_bp < breakpoints.size() && t + dt >= breakpoints[next_bp] - 1e-15) {
            dt = breakpoints[next_bp] - t;
            hits_bp = true;
            if (dt <= 0.0) {
                ++next_bp;
                continue;
            }
        }

        bool accepted = false;
        const real dt_first = dt;
        std::string ladder;
        while (!accepted) {
            tran_params p;
            p.t0 = t;
            p.t1 = t + dt;
            p.dt = dt;
            p.use_be = force_be;
            p.dc = dc_params;

            std::vector<real> x_try = x;
            const newton_outcome out = newton_iterate(
                sys, x_try, c.node_count(), opt.max_newton, tol,
                [&](const std::vector<real>& xi, system_builder<real>& b) {
                    return stamp_system(c, xi, p, opt.dc.gshunt, b);
                });
            if (out.converged) {
                for (const auto& dev : c.devices())
                    dev->tran_accept(x_try, p);
                x = std::move(x_try);
                t = p.t1;
                res.time.push_back(t);
                res.solution.push_back(x);
                accepted = true;
                force_be = false;
            } else {
                log_rung(ladder, "dt=" + format_value(dt) + ": " + describe_outcome(out));
                dt *= 0.5;
                hits_bp = false;
                if (dt < dt_min)
                    throw convergence_error(
                        "transient: Newton failed at t = " + format_value(t)
                        + " s advancing toward t = " + format_value(t + dt_first)
                        + " s; attempted: " + ladder + "; minimum step "
                        + format_value(dt_min) + " s (dt * dtmin_factor) reached");
            }
        }
        if (hits_bp) {
            ++next_bp;
            force_be = true; // restart the integrator across the corner
        }
    }
    res.solver = sys.stats();
    return res;
}

std::vector<real> node_waveform(const circuit& c, const tran_result& res,
                                const std::string& node_name)
{
    const auto id = c.find_node(node_name);
    if (!id)
        throw analysis_error("unknown node '" + node_name + "'");
    if (*id < 0)
        return std::vector<real>(res.step_count(), 0.0);
    return res.unknown_waveform(static_cast<std::size_t>(*id));
}

} // namespace acstab::spice
