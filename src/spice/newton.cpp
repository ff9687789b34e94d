#include "spice/newton.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace acstab::spice {

bool newton_converged(const std::vector<real>& x_old, const std::vector<real>& x_new,
                      std::size_t nodes, const newton_tolerances& tol, int noncon, real& worst)
{
    bool converged = noncon == 0;
    worst = 0.0;
    for (std::size_t i = 0; i < x_new.size(); ++i) {
        const real delta = std::fabs(x_new[i] - x_old[i]);
        const real floor_tol = i < nodes ? tol.vntol : tol.abstol;
        if (delta > tol.reltol * std::max(std::fabs(x_new[i]), std::fabs(x_old[i])) + floor_tol)
            converged = false;
        worst = std::max(worst, delta);
    }
    return converged;
}

newton_system::newton_system(std::size_t n, bool shared, solver_kind oneshot)
    : shared_(shared ? std::make_unique<tran_solver>(n) : nullptr), oneshot_(oneshot),
      builder_(shared ? 0 : n)
{
}

system_builder<real>& newton_system::begin_stamp()
{
    if (shared_)
        return shared_->begin_stamp();
    builder_.matrix().clear_values_keep_capacity();
    std::fill(builder_.rhs().begin(), builder_.rhs().end(), 0.0);
    return builder_;
}

std::vector<real> newton_system::solve()
{
    return shared_ ? shared_->solve() : solve_system(builder_, oneshot_);
}

tran_solver_stats newton_system::stats() const
{
    return shared_ ? shared_->stats() : tran_solver_stats{};
}

std::string describe_outcome(const newton_outcome& out)
{
    if (out.singular)
        return "singular matrix after " + std::to_string(out.iterations) + " iteration(s)";
    return "no convergence in " + std::to_string(out.iterations)
        + " iteration(s) (last max update " + format_value(out.worst_delta) + ")";
}

std::string format_value(real v)
{
    char buf[40];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, ptr) : std::string("?");
}

void log_rung(std::string& ladder, const std::string& clause)
{
    if (!ladder.empty())
        ladder += "; ";
    ladder += clause;
}

} // namespace acstab::spice
