#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace bench {

namespace {

    std::string fmt(real v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return buf;
    }

    bool near(real got, real want, real rel_tol)
    {
        return std::fabs(got - want) <= rel_tol * want;
    }

} // namespace

std::string check_planted_loop(const acstab::core::node_stability& ns, const tank& t)
{
    const std::string where = "node " + ns.node + ": ";
    if (!ns.has_peak)
        return where + "no pole peak (planted f0 " + fmt(t.f0_hz) + " Hz)";
    if (!ns.is_underdamped)
        return where + "peak not reported underdamped";
    if (!near(ns.dominant.freq_hz, t.f0_hz, ac_freq_tol))
        return where + "peak at " + fmt(ns.dominant.freq_hz) + " Hz, planted f0 "
            + fmt(t.f0_hz) + " Hz";
    return {};
}

std::string check_equivalent(std::span<const real> got, std::span<const real> want,
                             real scale_floor, const std::string& what)
{
    if (got.size() != want.size())
        return what + ": " + std::to_string(got.size()) + " samples, oracle has "
            + std::to_string(want.size());
    real scale = scale_floor;
    real diff = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        scale = std::max(scale, std::fabs(want[i]));
        // A NaN difference must fail, so no std::max here.
        const real d = std::fabs(got[i] - want[i]);
        if (!(d <= diff))
            diff = d;
    }
    if (!(diff <= equivalence_tol * scale))
        return what + ": max deviation " + fmt(diff / scale) + " relative to the oracle";
    return {};
}

std::string check_all_nodes(const acstab::core::stability_report& report,
                            const std::vector<tank>& tanks, const magnitude_oracle& oracle)
{
    const auto find = [&report](const std::string& name) -> const acstab::core::node_stability* {
        for (const auto& ns : report.nodes)
            if (ns.node == name)
                return &ns;
        return nullptr;
    };
    for (const tank& t : tanks) {
        const auto* ns = find(t.node);
        if (ns == nullptr)
            return "node " + t.node + " missing from the report";
        if (std::string err = check_planted_loop(*ns, t); !err.empty())
            return err;
        const auto idx = static_cast<std::size_t>(ns - report.nodes.data());
        const bool grouped = std::any_of(report.loops.begin(), report.loops.end(),
                                         [idx](const acstab::core::loop_group& g) {
                                             return std::find(g.members.begin(), g.members.end(),
                                                              idx)
                                                 != g.members.end();
                                         });
        if (!grouped)
            return "node " + t.node + " is in no loop group";
    }
    for (const auto& [name, mag] : oracle) {
        const auto* ns = find(name);
        if (ns == nullptr)
            return "node " + name + " missing from the report";
        if (std::string err = check_equivalent(ns->plot.magnitude, mag, 0.0, "node " + name);
            !err.empty())
            return err;
    }
    return {};
}

std::string check_tran_loop(const acstab::core::tran_stability_result& r, const tank& t)
{
    const std::string where = "step at " + t.node + ": ";
    if (!r.stable)
        return where + "reported unstable";
    if (!r.ringing)
        return where + "no ringing (planted f0 " + fmt(t.f0_hz) + " Hz)";
    if (!(r.zeta < 1.0))
        return where + "zeta " + fmt(r.zeta) + " is not underdamped";
    if (!near(r.ringing_freq_hz, t.f0_hz, tran_freq_tol))
        return where + "rings at " + fmt(r.ringing_freq_hz) + " Hz, planted f0 "
            + fmt(t.f0_hz) + " Hz";
    return {};
}

std::string check_tran_equivalent(const acstab::core::tran_stability_result& got,
                                  const acstab::core::tran_stability_result& want)
{
    if (got.time != want.time)
        return "step response time points differ from the oracle";
    return check_equivalent(got.value, want.value, 1.0, "step response");
}

std::string check_same_bytes(const std::string& path, const std::string& truth_path)
{
    std::ifstream a(path, std::ios::binary);
    std::ifstream b(truth_path, std::ios::binary);
    if (!a || !b)
        return "cannot open " + (a ? truth_path : path);
    constexpr std::size_t chunk = 1 << 16;
    std::string ba(chunk, '\0');
    std::string bb(chunk, '\0');
    std::size_t offset = 0;
    for (;;) {
        a.read(ba.data(), chunk);
        b.read(bb.data(), chunk);
        const auto na = static_cast<std::size_t>(a.gcount());
        const auto nb = static_cast<std::size_t>(b.gcount());
        const std::size_t n = std::min(na, nb);
        for (std::size_t i = 0; i < n; ++i)
            if (ba[i] != bb[i])
                return path + " differs from the truth at byte " + std::to_string(offset + i);
        if (na != nb)
            return path + " and the truth differ in length";
        if (na < chunk)
            return {};
        offset += n;
    }
}

} // namespace bench
