#include "spice/ac_analysis.h"

#include <cmath>

#include "engine/frequency_sweep.h"
#include "engine/linearized_snapshot.h"

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
    if (op.size() != c.unknown_count())
        throw analysis_error("ac sweep: operating point has wrong size");

    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.exclusive_source = opt.exclusive_source;
    const engine::linearized_snapshot snap(c, op, sopt);

    // One channel per MNA unknown: the whole solution vector comes back
    // on the output grid, on both the fixed and the adaptive path.
    std::vector<engine::sweep_channel> channels(snap.size());
    for (std::size_t k = 0; k < snap.size(); ++k)
        channels[k] = {0, k};
    engine::sweep_policy policy;
    policy.adaptive = opt.adaptive;
    policy.threads = opt.threads;
    const engine::sweep_result sw = engine::frequency_sweep(
        snap, freqs_hz, std::vector<std::vector<cplx>>{snap.stimulus_rhs()}, channels, policy);

    ac_result res;
    res.freq_hz = sw.freq_hz;
    res.factorizations = sw.factorizations;
    res.solution.assign(sw.freq_hz.size(), std::vector<cplx>(snap.size()));
    for (std::size_t k = 0; k < snap.size(); ++k)
        for (std::size_t fi = 0; fi < sw.freq_hz.size(); ++fi)
            res.solution[fi][k] = sw.values[k][fi];
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
