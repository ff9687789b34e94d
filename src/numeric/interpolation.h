// Interpolation helpers: linear interpolation on tabulated data, inverse
// interpolation for level crossings, and parabolic refinement of extrema
// (used to place stability-plot peaks between sweep points).
#ifndef ACSTAB_NUMERIC_INTERPOLATION_H
#define ACSTAB_NUMERIC_INTERPOLATION_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace acstab::numeric {

/// Piecewise-linear interpolation of y(x) at xq; x must be strictly
/// increasing. Query points outside the range clamp to the end values.
[[nodiscard]] inline real interp_linear(std::span<const real> x, std::span<const real> y, real xq)
{
    if (x.size() != y.size() || x.size() < 2)
        throw numeric_error("interp_linear: need matching arrays of >= 2 points");
    if (xq <= x.front())
        return y.front();
    if (xq >= x.back())
        return y.back();
    const auto it = std::upper_bound(x.begin(), x.end(), xq);
    const std::size_t hi = static_cast<std::size_t>(it - x.begin());
    const std::size_t lo = hi - 1;
    const real t = (xq - x[lo]) / (x[hi] - x[lo]);
    return y[lo] + t * (y[hi] - y[lo]);
}

/// First x where y crosses `level`, scanning left to right with linear
/// inverse interpolation. Returns false when no crossing exists.
[[nodiscard]] inline bool find_crossing(std::span<const real> x, std::span<const real> y,
                                        real level, real& x_cross)
{
    if (x.size() != y.size() || x.size() < 2)
        throw numeric_error("find_crossing: need matching arrays of >= 2 points");
    for (std::size_t i = 1; i < x.size(); ++i) {
        const real a = y[i - 1] - level;
        const real b = y[i] - level;
        if (a == 0.0) {
            x_cross = x[i - 1];
            return true;
        }
        if ((a < 0.0) != (b < 0.0)) {
            const real t = a / (a - b);
            x_cross = x[i - 1] + t * (x[i] - x[i - 1]);
            return true;
        }
    }
    if (y.back() == level) {
        x_cross = x.back();
        return true;
    }
    return false;
}

/// Result of fitting a parabola through three samples around an extremum.
struct parabolic_extremum {
    real x = 0.0; ///< refined extremum abscissa
    real y = 0.0; ///< refined extremum value
};

/// Refine an extremum bracketed by (x0,y0),(x1,y1),(x2,y2) where y1 is the
/// extreme sample. Falls back to the middle sample for degenerate fits.
[[nodiscard]] inline parabolic_extremum refine_extremum(real x0, real y0, real x1, real y1,
                                                        real x2, real y2)
{
    // Lagrange parabola y(x) = a x^2 + b x + c through the three samples.
    const real d0 = (x0 - x1) * (x0 - x2);
    const real d1 = (x1 - x0) * (x1 - x2);
    const real d2 = (x2 - x0) * (x2 - x1);
    const real a = y0 / d0 + y1 / d1 + y2 / d2;
    const real b = -(y0 * (x1 + x2) / d0 + y1 * (x0 + x2) / d1 + y2 * (x0 + x1) / d2);
    if (a == 0.0)
        return {x1, y1};
    const real xv = -b / (2.0 * a);
    if (xv < std::min({x0, x1, x2}) || xv > std::max({x0, x1, x2}))
        return {x1, y1};
    const real c = y0 - a * x0 * x0 - b * x0;
    return {xv, a * xv * xv + b * xv + c};
}

/// Logarithmically spaced grid from lo to hi inclusive (n >= 2 points).
[[nodiscard]] inline std::vector<real> log_space(real lo, real hi, std::size_t n)
{
    if (!(lo > 0.0) || !(hi > lo))
        throw numeric_error("log_space: need 0 < lo < hi");
    if (n < 2)
        throw numeric_error("log_space: need at least 2 points");
    std::vector<real> g(n);
    const real llo = std::log(lo);
    const real lhi = std::log(hi);
    for (std::size_t i = 0; i < n; ++i)
        g[i] = std::exp(llo + (lhi - llo) * static_cast<real>(i) / static_cast<real>(n - 1));
    g.front() = lo;
    g.back() = hi;
    return g;
}

/// The canonical log-frequency sweep grid: `ppd` points per decade over
/// [lo, hi], both endpoints included, never fewer than `min_points`.
/// Shared by the fixed sweep (core::sweep_spec), the CLI grids and the
/// adaptive driver's anchor grid so every path realizes the same
/// frequencies for the same (lo, hi, ppd).
[[nodiscard]] inline std::vector<real> log_grid(real lo, real hi, std::size_t ppd,
                                                std::size_t min_points = 2)
{
    if (!(lo > 0.0) || !(hi > lo))
        throw numeric_error("log_grid: need 0 < lo < hi");
    if (ppd == 0)
        throw numeric_error("log_grid: need at least 1 point per decade");
    const real decades = std::log10(hi / lo);
    const std::size_t n = std::max<std::size_t>(
        std::max<std::size_t>(min_points, 2),
        static_cast<std::size_t>(std::ceil(decades * static_cast<real>(ppd))) + 1);
    return log_space(lo, hi, n);
}

/// Linearly spaced grid from lo to hi inclusive (n >= 2 points).
[[nodiscard]] inline std::vector<real> lin_space(real lo, real hi, std::size_t n)
{
    if (n < 2)
        throw numeric_error("lin_space: need at least 2 points");
    std::vector<real> g(n);
    for (std::size_t i = 0; i < n; ++i)
        g[i] = lo + (hi - lo) * static_cast<real>(i) / static_cast<real>(n - 1);
    return g;
}

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_INTERPOLATION_H
