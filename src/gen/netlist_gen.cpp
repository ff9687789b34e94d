#include "gen/netlist_gen.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/error.h"

namespace acstab::gen {

namespace {

    void append_value(std::string& out, real v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        out += buf;
    }

    void append_stability_card(std::string& out, const std::string& probe,
                               const gen_options& opt)
    {
        out += ".stability " + probe + " ";
        append_value(out, opt.fstart);
        out += " ";
        append_value(out, opt.fstop);
        out += ' ';
        out += std::to_string(opt.points_per_decade);
        out += "\n.end\n";
    }

    /// Hard ceiling on generated node counts. Far above anything the
    /// bench sweeps (the largest CI size is 8k; manual runs go to a few
    /// hundred thousand) but low enough that every index/size product
    /// below stays comfortably inside std::size_t on 32- and 64-bit.
    constexpr std::size_t max_gen_nodes = std::size_t{1} << 26; // ~67M

    void check(const gen_options& opt)
    {
        if (opt.size == 0)
            throw analysis_error("gen: size must be at least 1");
        if (opt.size > max_gen_nodes)
            throw analysis_error("gen: size " + std::to_string(opt.size)
                                 + " exceeds the generator ceiling of "
                                 + std::to_string(max_gen_nodes) + " nodes");
        if (!(opt.r > 0.0) || !(opt.c > 0.0))
            throw analysis_error("gen: r and c must be positive");
        if (!(opt.fstart > 0.0) || !(opt.fstop > opt.fstart))
            throw analysis_error("gen: need 0 < fstart < fstop");
    }

    /// Rounded integer square root: exact integer arithmetic, no
    /// double round-trip (lround(sqrt(double)) silently loses precision
    /// past 2^53 and its long return truncates on LLP64), no overflow:
    /// the Newton iterate stays within ~2*sqrt(n) for n <= max_gen_nodes.
    [[nodiscard]] std::size_t isqrt_round(std::size_t n)
    {
        if (n == 0)
            return 0;
        std::size_t x = n;
        std::size_t y = (x + 1) / 2;
        while (y < x) {
            x = y;
            y = (x + n / x) / 2;
        }
        // x = floor(sqrt(n)); round to nearest by comparing remainders.
        // n - x^2 > (x+1)^2 - n  <=>  n > x^2 + x (all well in range).
        return n - x * x > x ? x + 1 : x;
    }

    /// reserve() with saturating size arithmetic: the estimate is only a
    /// growth hint, so on (32-bit) overflow we clamp instead of wrapping
    /// to a tiny — or absurd — request.
    void reserve_estimate(std::string& out, std::size_t count, std::size_t bytes_per,
                          std::size_t slack)
    {
        constexpr std::size_t cap = std::numeric_limits<std::size_t>::max() / 2;
        const std::size_t est = count > cap / bytes_per ? cap : count * bytes_per;
        out.reserve(est > cap - slack ? cap : est + slack);
    }

} // namespace

std::string ladder_netlist(const gen_options& opt)
{
    check(opt);
    const std::size_t n = opt.size;
    std::string out;
    reserve_estimate(out, n, 64, 256);
    out += "* generated RC ladder, " + std::to_string(n) + " sections (acstab gen ladder)\n";
    out += "vin in 0 1 ac 1\n";
    std::string prev = "in";
    for (std::size_t k = 1; k <= n; ++k) {
        const std::string idx = std::to_string(k);
        const std::string node = "n" + idx;
        out += "r" + idx + " " + prev + " " + node + " ";
        append_value(out, opt.r);
        out += "\nc" + idx + " " + node + " 0 ";
        append_value(out, opt.c);
        out += "\n";
        prev = node;
    }
    const std::string probe = std::to_string((n + 1) / 2);
    append_stability_card(out, "n" + probe, opt);
    return out;
}

std::string rcmesh_netlist(const gen_options& opt)
{
    check(opt);
    const std::size_t k = std::max<std::size_t>(2, isqrt_round(opt.size));
    const auto node = [](std::size_t i, std::size_t j) {
        const std::string row = std::to_string(i);
        return "n" + row + "_" + std::to_string(j);
    };
    std::string out;
    reserve_estimate(out, k * k, 96, 256);
    out += "* generated " + std::to_string(k) + "x" + std::to_string(k)
        + " RC mesh (acstab gen rcmesh)\n";
    out += "vin src 0 1 ac 1\n";
    out += "rdrv src " + node(0, 0) + " ";
    append_value(out, opt.r);
    out += "\n";
    std::size_t re = 0;
    std::size_t ce = 0;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            if (j + 1 < k) {
                out += "rh" + std::to_string(re++) + " " + node(i, j) + " " + node(i, j + 1)
                    + " ";
                append_value(out, opt.r);
                out += "\n";
            }
            if (i + 1 < k) {
                out += "rv" + std::to_string(re++) + " " + node(i, j) + " " + node(i + 1, j)
                    + " ";
                append_value(out, opt.r);
                out += "\n";
            }
            const std::string cap = std::to_string(ce++);
            out += "c" + cap + " " + node(i, j) + " 0 ";
            append_value(out, opt.c);
            out += "\n";
        }
    }
    append_stability_card(out, node(k / 2, k / 2), opt);
    return out;
}

std::string generate_netlist(const std::string& kind, const gen_options& opt)
{
    if (kind == "ladder")
        return ladder_netlist(opt);
    if (kind == "rcmesh")
        return rcmesh_netlist(opt);
    throw analysis_error("gen: unknown netlist kind '" + kind + "' (ladder | rcmesh)");
}

} // namespace acstab::gen
