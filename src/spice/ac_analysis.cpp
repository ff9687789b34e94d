#include "spice/ac_analysis.h"

#include <cmath>

#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"

namespace acstab::spice {

std::vector<cplx> ac_result::unknown_response(std::size_t index) const
{
    std::vector<cplx> out(solution.size());
    for (std::size_t k = 0; k < solution.size(); ++k)
        out[k] = solution[k][index];
    return out;
}

std::vector<real> ac_result::unknown_magnitude(std::size_t index) const
{
    std::vector<real> out(solution.size());
    for (std::size_t k = 0; k < solution.size(); ++k)
        out[k] = std::abs(solution[k][index]);
    return out;
}

ac_result ac_sweep(circuit& c, const std::vector<real>& freqs_hz, const std::vector<real>& op,
                   const ac_options& opt)
{
    c.finalize();
    if (freqs_hz.empty())
        throw analysis_error("ac sweep: empty frequency list");
    for (const real f : freqs_hz)
        if (!(f > 0.0))
            throw analysis_error("ac sweep: frequencies must be positive");
    if (op.size() != c.unknown_count())
        throw analysis_error("ac sweep: operating point has wrong size");

    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.exclusive_source = opt.exclusive_source;
    const engine::linearized_snapshot snap(c, op, sopt);

    ac_result res;
    if (opt.adaptive) {
        // One adaptive channel per MNA unknown: the shared-support
        // rational model then reconstructs the whole solution vector on
        // the dense output grid, not just a pre-selected probe node.
        engine::adaptive_sweep_options aopt = engine::adaptive_options_for_grid(freqs_hz);
        aopt.anchors_per_decade = opt.anchors_per_decade;
        aopt.fit_tol = opt.fit_tol;
        aopt.engine.threads = opt.threads;
        std::vector<engine::adaptive_channel> channels(snap.size());
        for (std::size_t k = 0; k < snap.size(); ++k)
            channels[k] = {0, k};
        const engine::adaptive_sweep_result ares
            = engine::adaptive_sweep(aopt).run(snap, {snap.stimulus_rhs()}, channels);
        res.freq_hz = ares.freq_hz;
        res.factorizations = ares.factorizations;
        res.solution.assign(ares.freq_hz.size(), std::vector<cplx>(snap.size()));
        for (std::size_t k = 0; k < snap.size(); ++k)
            for (std::size_t fi = 0; fi < ares.freq_hz.size(); ++fi)
                res.solution[fi][k] = ares.values[k][fi];
        return res;
    }

    engine::sweep_engine_options eopt;
    eopt.threads = opt.threads;
    const engine::sweep_engine eng(eopt);

    res.freq_hz = freqs_hz;
    res.factorizations = freqs_hz.size();
    res.solution.resize(freqs_hz.size());
    eng.run(snap, freqs_hz, {snap.stimulus_rhs()},
            [&res](std::size_t fi, std::size_t, std::span<const cplx> sol) {
                res.solution[fi].assign(sol.begin(), sol.end());
            });
    return res;
}

std::vector<cplx> node_response(const circuit& c, const ac_result& res,
                                const std::string& node_name)
{
    const auto id = c.find_node(node_name);
    if (!id)
        throw analysis_error("unknown node '" + node_name + "'");
    if (*id < 0)
        return std::vector<cplx>(res.point_count(), cplx{0.0, 0.0});
    return res.unknown_response(static_cast<std::size_t>(*id));
}

} // namespace acstab::spice
