#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "gen/netlist_gen.h"

namespace bench {

std::uint64_t rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

real rng::uniform()
{
    return static_cast<real>(next() >> 11) * 0x1.0p-53;
}

std::size_t rng::index(std::size_t n)
{
    return static_cast<std::size_t>(uniform() * static_cast<real>(n)) % n;
}

namespace {

    /// Values are written with 6 significant digits and read back, so
    /// the designed quantities are computed from exactly what the
    /// netlist carries.
    real emit(std::string& out, real v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        out += buf;
        return std::strtod(buf, nullptr);
    }

} // namespace

mesh_input make_mesh(const mesh_spec& spec, std::uint64_t seed)
{
    if (spec.tanks == 0)
        throw std::invalid_argument("make_mesh: need at least one tank");
    rng r(seed);
    acstab::gen::gen_options gopt;
    gopt.size = spec.size;
    const std::string base = acstab::gen::rcmesh_netlist(gopt);

    mesh_input in;
    std::vector<std::string> mesh_nodes;
    std::istringstream lines(base);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '.')
            continue; // the generator's .stability card and .end go
        const char kind = line[0];
        if (kind != 'r' && kind != 'c') {
            in.netlist += line + "\n";
            continue;
        }
        // "<name> <n1> <n2> <value>": jitter the value.
        std::istringstream tok(line);
        std::string name, n1, n2, value;
        tok >> name >> n1 >> n2 >> value;
        if (kind == 'c')
            mesh_nodes.push_back(n1);
        in.netlist += name + " " + n1 + " " + n2 + " ";
        emit(in.netlist, std::strtod(value.c_str(), nullptr)
                             * (1.0 + 0.1 * r.uniform(-1.0, 1.0)));
        in.netlist += "\n";
    }
    if (spec.tanks + 2 > mesh_nodes.size())
        throw std::invalid_argument("make_mesh: mesh too small for the requested tanks");

    // Distinct sites: tanks first, then two spot-check nodes.
    std::vector<std::size_t> sites;
    while (sites.size() < spec.tanks + 2) {
        const std::size_t s = r.index(mesh_nodes.size());
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
            sites.push_back(s);
    }

    const real llo = std::log(0.4e6);
    const real lspan = std::log(4.0e6) - llo;
    const real k = static_cast<real>(spec.tanks);
    for (std::size_t t = 0; t < spec.tanks; ++t) {
        // One draw per log stratum, kept off the stratum edges so any two
        // tanks sit at least 0.3 strata apart.
        const real f = std::exp(llo + lspan * (static_cast<real>(t) + r.uniform(0.15, 0.85)) / k);
        const real z0 = r.uniform(20.0, 40.0);
        const real w = acstab::two_pi * f;
        tank tk;
        tk.node = "t" + std::to_string(t);
        tk.mesh_node = mesh_nodes[sites[t]];
        in.netlist += "rt" + std::to_string(t) + " " + tk.mesh_node + " " + tk.node + " ";
        tk.r_ohm = emit(in.netlist, r.uniform(300.0, 600.0));
        in.netlist += "\nlt" + std::to_string(t) + " " + tk.node + " 0 ";
        tk.l_h = emit(in.netlist, z0 / w);
        in.netlist += "\nct" + std::to_string(t) + " " + tk.node + " 0 ";
        tk.c_f = emit(in.netlist, 1.0 / (w * z0));
        in.netlist += "\n";
        tk.f0_hz = 1.0 / (acstab::two_pi * std::sqrt(tk.l_h * tk.c_f));
        in.tanks.push_back(std::move(tk));
    }
    in.netlist += ".end\n";
    in.probe = r.index(spec.tanks);
    in.spot_nodes = {mesh_nodes[sites[spec.tanks]], mesh_nodes[sites[spec.tanks + 1]]};
    return in;
}

std::vector<real> make_temperature_grid(std::size_t count, std::uint64_t seed)
{
    rng r(seed);
    std::vector<real> temps(count);
    const real lo = -40.0;
    const real span = 165.0;
    for (std::size_t i = 0; i < count; ++i) {
        // Rounded to 1 mK so plan files stay short; strata are 165/count
        // wide, far coarser than the rounding at benchmark sizes.
        const real t = lo + span * (static_cast<real>(i) + r.uniform(0.05, 0.95))
                                / static_cast<real>(count);
        temps[i] = std::round(t * 1000.0) / 1000.0;
    }
    return temps;
}

} // namespace bench
