#include "spice/dc_analysis.h"

#include <algorithm>
#include <cmath>

#include "spice/newton.h"

namespace acstab::spice {

namespace {

    /// What one dc_operating_point call shares across its ladder rungs:
    /// one shared-symbolic solver (one symbolic analysis for every
    /// iteration of every rung), the Newton tolerances, the summed
    /// iteration count and the ladder diagnostic.
    struct dc_run {
        circuit& c;
        const dc_options& opt;
        newton_system sys;
        newton_tolerances tol;
        dc_result result;
        std::string ladder;
    };

    /// Stamp every device at x (plus the node shunts); returns the pass's
    /// noncon count.
    int stamp_circuit(circuit& c, const std::vector<real>& x, const stamp_params& params,
                      real gshunt, system_builder<real>& b)
    {
        params.noncon = 0;
        for (const auto& dev : c.devices())
            dev->stamp_dc(x, params, b);
        if (gshunt > 0.0)
            for (std::size_t i = 0; i < c.node_count(); ++i)
                b.add(static_cast<node_id>(i), static_cast<node_id>(i), gshunt);
        return params.noncon;
    }

    /// One Newton solve at fixed continuation parameters. Updates x in
    /// place and adds its iterations to the run's total; returns the
    /// status instead of throwing so the continuation ladder can react.
    newton_outcome newton_solve(dc_run& run, std::vector<real>& x, const stamp_params& params,
                                real gshunt)
    {
        const newton_outcome out = newton_iterate(
            run.sys, x, run.c.node_count(), run.opt.max_iterations, run.tol,
            [&](const std::vector<real>& xi, system_builder<real>& b) {
                return stamp_circuit(run.c, xi, params, gshunt, b);
            });
        run.result.iterations += out.iterations;
        return out;
    }

    /// KCL residual of a converged point: one stamp pass at x with
    /// limiting off and a product with the assembled matrix, no
    /// factorization. Row i of A x - b is the net current into node i (or
    /// the residual of branch equation i). Returns the largest ratio of a
    /// row's residual to its tolerance: reltol times the magnitude of the
    /// row's own terms (a componentwise backward error) plus the row's
    /// floor, abstol for node rows and vntol for branch rows. The point
    /// passes when the ratio is at most 1.
    [[nodiscard]] real kcl_residual_ratio(dc_run& run, const std::vector<real>& x,
                                          const stamp_params& params, real gshunt)
    {
        stamp_params exact = params;
        exact.limit = false;
        system_builder<real>& b = run.sys.begin_stamp();
        (void)stamp_circuit(run.c, x, exact, gshunt, b);

        const std::size_t n = x.size();
        std::vector<real> resid(n);
        std::vector<real> scale(n);
        for (std::size_t i = 0; i < n; ++i) {
            resid[i] = -b.rhs()[i];
            scale[i] = std::fabs(b.rhs()[i]);
        }
        for (const auto& e : b.matrix().entries()) {
            const real term = e.value * x[e.col];
            resid[e.row] += term;
            scale[e.row] += std::fabs(term);
        }
        real worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const real floor_tol = i < run.c.node_count() ? run.tol.abstol : run.tol.vntol;
            worst = std::max(worst, std::fabs(resid[i]) / (run.tol.reltol * scale[i] + floor_tol));
        }
        return worst;
    }

    /// Accept a rung's converged point if it passes the KCL residual
    /// check; a failed check fails the rung and the ladder continues.
    [[nodiscard]] bool accept(dc_run& run, std::vector<real>& x, const stamp_params& params,
                              real gshunt, const std::string& rung)
    {
        const real ratio = kcl_residual_ratio(run, x, params, gshunt);
        if (!(ratio <= 1.0)) {
            log_rung(run.ladder, rung + ": converged, but the KCL residual is "
                                     + format_value(ratio) + "x its tolerance");
            return false;
        }
        run.result.solution = std::move(x);
        run.result.used_gshunt = gshunt > 0.0;
        return true;
    }

    void reset_devices(circuit& c)
    {
        for (const auto& dev : c.devices())
            dev->dc_begin();
    }

    [[nodiscard]] std::string rung_name(const char* strategy, real gshunt)
    {
        return std::string(strategy) + " (gshunt=" + format_value(gshunt) + ")";
    }

    [[nodiscard]] bool try_plain(dc_run& run, real gshunt)
    {
        const std::string rung = rung_name("plain Newton", gshunt);
        reset_devices(run.c);
        std::vector<real> x(run.c.unknown_count(), 0.0);
        const stamp_params params{.gmin = run.opt.gmin};
        const newton_outcome plain = newton_solve(run, x, params, gshunt);
        if (!plain.converged) {
            log_rung(run.ladder, rung + ": " + describe_outcome(plain));
            return false;
        }
        return accept(run, x, params, gshunt, rung);
    }

    [[nodiscard]] bool try_gmin_stepping(dc_run& run, real gshunt)
    {
        const std::string rung = rung_name("gmin stepping", gshunt);
        reset_devices(run.c);
        std::vector<real> x(run.c.unknown_count(), 0.0);
        stamp_params step;
        for (real g = 1e-2; g >= run.opt.gmin * 0.99; g *= 0.1) {
            step.gmin = g;
            const newton_outcome out = newton_solve(run, x, step, gshunt);
            if (!out.converged) {
                log_rung(run.ladder, rung + ": stalled at gmin=" + format_value(g) + ", "
                                         + describe_outcome(out));
                return false;
            }
        }
        step.gmin = run.opt.gmin;
        const newton_outcome last = newton_solve(run, x, step, gshunt);
        if (!last.converged) {
            log_rung(run.ladder, rung + ": final polish at gmin=" + format_value(run.opt.gmin)
                                     + " failed, " + describe_outcome(last));
            return false;
        }
        if (!accept(run, x, step, gshunt, rung))
            return false;
        run.result.used_gmin_stepping = true;
        return true;
    }

    [[nodiscard]] bool try_source_stepping(dc_run& run, real gshunt)
    {
        const std::string rung = rung_name("source stepping", gshunt);
        reset_devices(run.c);
        std::vector<real> x_good(run.c.unknown_count(), 0.0);
        stamp_params step{.gmin = run.opt.gmin};

        real last_good = 0.0;
        real increment = 0.05;
        int failures = 0;
        newton_outcome last_attempt;
        while (last_good < 1.0) {
            const real scale = std::min(1.0, last_good + increment);
            step.source_scale = scale;
            std::vector<real> x = x_good;
            last_attempt = newton_solve(run, x, step, gshunt);
            if (last_attempt.converged) {
                last_good = scale;
                x_good = std::move(x);
                increment *= 1.5;
            } else {
                increment *= 0.25;
                if (++failures > 16 || increment < 1e-5) {
                    log_rung(run.ladder, rung + ": stalled at source scale "
                                             + format_value(last_good) + " after "
                                             + std::to_string(failures) + " rejected steps, "
                                             + describe_outcome(last_attempt));
                    return false;
                }
            }
        }
        step.source_scale = 1.0;
        const newton_outcome final_solve = newton_solve(run, x_good, step, gshunt);
        if (!final_solve.converged) {
            log_rung(run.ladder,
                     rung + ": full-source polish failed, " + describe_outcome(final_solve));
            return false;
        }
        if (!accept(run, x_good, step, gshunt, rung))
            return false;
        run.result.used_source_stepping = true;
        return true;
    }

} // namespace

dc_result dc_operating_point(circuit& c, const dc_options& opt)
{
    c.finalize();
    // Every rung the ladder actually attempts records its gshunt value
    // and where the Newton loop gave up, so a non-convergence error tells
    // the user (and the farm's quarantine records) exactly what was
    // tried instead of a generic "did not converge".
    dc_run run{c,
               opt,
               newton_system(c.unknown_count(), opt.solver == solver_kind::sparse, opt.solver),
               {.reltol = opt.reltol, .vntol = opt.vntol, .abstol = opt.abstol},
               {},
               {}};

    if (try_plain(run, opt.gshunt))
        return std::move(run.result);
    const bool retry_shunt = opt.gshunt_retry > opt.gshunt;
    if (retry_shunt && try_plain(run, opt.gshunt_retry))
        return std::move(run.result);

    const real gshunt = std::max(opt.gshunt, retry_shunt ? opt.gshunt_retry : opt.gshunt);
    if (opt.allow_gmin_stepping) {
        if (try_gmin_stepping(run, gshunt))
            return std::move(run.result);
    } else {
        log_rung(run.ladder, "gmin stepping: disabled");
    }
    if (opt.allow_source_stepping) {
        if (try_source_stepping(run, gshunt))
            return std::move(run.result);
    } else {
        log_rung(run.ladder, "source stepping: disabled");
    }

    throw convergence_error("dc operating point did not converge; attempted: " + run.ladder);
}

real node_voltage(const circuit& c, const std::vector<real>& solution,
                  const std::string& node_name)
{
    const auto id = c.find_node(node_name);
    if (!id)
        throw analysis_error("unknown node '" + node_name + "'");
    if (*id < 0)
        return 0.0;
    return solution[static_cast<std::size_t>(*id)];
}

} // namespace acstab::spice
