#include "engine/reference_sweep.h"

namespace acstab::engine {

spice::ac_result reference_ac_sweep(spice::circuit& c, const std::vector<real>& freqs_hz,
                                    const std::vector<real>& op, const spice::ac_options& opt)
{
    c.finalize();
    if (freqs_hz.empty())
        throw analysis_error("ac sweep: empty frequency list");
    if (op.size() != c.unknown_count())
        throw analysis_error("ac sweep: operating point has wrong size");

    const std::size_t n = c.unknown_count();
    const std::size_t nodes = c.node_count();

    spice::ac_result res;
    res.freq_hz = freqs_hz;
    res.solution.reserve(freqs_hz.size());

    for (const real f : freqs_hz) {
        if (!(f > 0.0))
            throw analysis_error("ac sweep: frequencies must be positive");
        spice::ac_params p;
        p.omega = to_omega(f);
        p.gmin = opt.gmin;
        p.exclusive_source = opt.exclusive_source;

        spice::system_builder<cplx> b(n);
        for (const auto& dev : c.devices())
            dev->stamp_ac(op, p, b);
        if (opt.gshunt > 0.0)
            for (std::size_t i = 0; i < nodes; ++i)
                b.add(static_cast<spice::node_id>(i), static_cast<spice::node_id>(i),
                      cplx{opt.gshunt, 0.0});

        res.solution.push_back(solve_system(b, spice::solver_kind::sparse));
    }
    return res;
}

} // namespace acstab::engine
