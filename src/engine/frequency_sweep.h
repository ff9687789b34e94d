// The one frequency-sweep entry point behind every frequency-domain
// analysis (ac, Bode, loop gain, single-node stability, the impedance
// partition's side sweeps and the adaptive all-nodes report). The caller
// hands over a snapshot, its realized output grid, the right-hand sides
// and the observed channels; the policy decides how the grid is covered:
//
//   fixed     every grid point is factored and solved through
//             sweep_engine — the same solves, bit for bit, as calling
//             the engine directly, with no heap allocation per frequency;
//   adaptive  a rational-interpolated sweep that factors fewer points
//             where a low-order rational model fits the responses (about
//             10x fewer on the shipped netlists). Where it does not, the
//             run can factor more points than the fixed grid: a generated
//             2k-node RC mesh took 426 factorizations against 301.
//
// The adaptive path exists because the fixed grid spends one LU
// factorization per grid point even where the response is flat.
// Frequency responses of lumped linear circuits are exactly rational
// and — for stable closed loops — of low visible order over any finite
// band (Cooman et al., "Model-Free Closed-Loop Stability Analysis"), so a
// barycentric rational model fitted to a few solved samples predicts the
// rest of the band:
//
//   anchor   solve a coarse log grid (adaptive_anchors_per_decade over
//            [grid.front(), grid.back()]) through the sweep engine;
//   fit      AAA-fit one shared-support rational model to the observable
//            channels (numeric/aaa.h), all right-hand sides at once;
//   refine   at each candidate midpoint of adjacent solved frequencies,
//            predict the FULL solution vector of every right-hand side
//            from the model's barycentric coefficients (common weights
//            make this a short linear combination of stored solutions)
//            and measure the backward error ||Y(jw) x - b|| with one
//            matrix assembly and one SpMV per RHS — no factorization.
//            Frequencies whose worst-RHS backward error exceeds
//            adaptive_fit_tol are solved for real in one batched engine
//            pass, and the loop repeats (bisection) until every
//            candidate passes or the budget is exhausted;
//   evaluate the caller's grid is evaluated from the fitted model and
//            merged with every solved frequency (exact solved values
//            there), so consumers see their own grid plus the solved
//            extras — a superset of the fixed path's output.
//
// Multi-RHS batches (all-nodes analysis, loop gain's two injections)
// refine on the worst error over all right-hand sides, so a single
// refined grid serves every RHS.
#ifndef ACSTAB_ENGINE_FREQUENCY_SWEEP_H
#define ACSTAB_ENGINE_FREQUENCY_SWEEP_H

#include <cstddef>
#include <variant>
#include <vector>

#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "numeric/aaa.h"

namespace acstab::engine {

/// Relative backward-error tolerance of the adaptive model's predicted
/// solutions; candidates above it are solved for real. Responses of
/// lumped circuits are exactly rational, so this tight value costs few
/// extra solves while keeping margins within rounding of the dense sweep.
inline constexpr real adaptive_fit_tol = 1e-6;
/// Density of the adaptive sweep's always-solved coarse anchor grid.
inline constexpr std::size_t adaptive_anchors_per_decade = 4;

/// How a sweep covers its grid, and the engine settings it runs under.
struct sweep_policy {
    bool adaptive = false;
    /// Worker threads (1 = serial, 0 = all hardware threads).
    std::size_t threads = 1;
    spice::solver_kind solver = spice::solver_kind::sparse;
    /// Sparse-solver oracle selectors (see solver_tuning).
    solver_tuning tuning;

    /// The sweep engine settings of this policy.
    [[nodiscard]] sweep_engine_options engine() const;
};

/// One scalar observable: entry `unknown` of right-hand side `rhs`'s
/// solution.
struct sweep_channel {
    std::size_t rhs = 0;
    std::size_t unknown = 0;
};

/// The right-hand sides of a sweep: single-entry injections, or dense
/// vectors of the snapshot's size.
using sweep_rhs
    = std::variant<std::vector<sweep_engine::injection>, std::vector<std::vector<cplx>>>;

struct sweep_result {
    /// Output grid: the caller's grid (fixed), or the caller's grid
    /// merged with every solved frequency (adaptive; sorted, solved
    /// points replace grid points within 1e-9 relative).
    std::vector<real> freq_hz;
    /// Channel values on freq_hz: exact solver output at solved
    /// frequencies, model evaluation elsewhere. [channel][freq index].
    std::vector<std::vector<cplx>> values;
    /// Frequencies actually factored and solved, ascending.
    std::vector<real> solved_freq_hz;
    /// LU factorizations performed (one per solved frequency).
    std::size_t factorizations = 0;
    /// Adaptive only: the final fitted rational model (components in
    /// channel order). Consumers evaluate it at arbitrary frequencies or
    /// extract its poles/level crossings.
    numeric::aaa_model model;
    /// Adaptive only: false when the round or point budget ran out with
    /// candidates still failing the residual check (results are then
    /// best-effort).
    bool converged = true;
};

/// Sweep `channels` of the solutions of Y(j 2 pi f) x = b over
/// `grid_hz` (positive; adaptive mode also needs it strictly ascending
/// with at least 2 points) for every right-hand side b.
[[nodiscard]] sweep_result frequency_sweep(const linearized_snapshot& snap,
                                           const std::vector<real>& grid_hz,
                                           const sweep_rhs& rhs,
                                           const std::vector<sweep_channel>& channels,
                                           const sweep_policy& policy);

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_FREQUENCY_SWEEP_H
