// Transient analysis: trapezoidal integration with a backward-Euler kick
// at t=0 and after every source breakpoint, Newton iteration per step, and
// automatic step halving when Newton stalls.
//
// Newton solves run on the shared-symbolic path (one symbolic
// factorization for the whole run, numeric-only refactorization only when
// the assembled companion matrix changes — see tran_solver.h). The
// one-shot factor-per-solve path (spice::solve_system) is kept behind
// shared_solver=false only as the oracle the shared path is checked
// against: the tran_solver equivalence tests, bench_e2e's mesh-step
// check and the CI "Guard the shared transient solver" baseline.
#ifndef ACSTAB_SPICE_TRAN_ANALYSIS_H
#define ACSTAB_SPICE_TRAN_ANALYSIS_H

#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/mna.h"
#include "spice/tran_solver.h"

namespace acstab::spice {

struct tran_options {
    real tstop = 0.0;
    /// Nominal step; the engine subdivides at breakpoints and halves on
    /// Newton failure. 0 selects tstop/1000.
    real dt = 0.0;
    real dtmin_factor = 1e-6; ///< smallest allowed step = dt * factor
    int max_newton = 60;
    real reltol = 1e-3;
    real vntol = 1e-6;
    real abstol = 1e-12;
    /// Route every Newton solve through one shared symbolic factorization
    /// that refactors numerically only when the assembled values change
    /// (tran_solver). OFF selects the one-shot oracle — fresh compression
    /// + symbolic analysis + factorization per Newton iteration — that
    /// the equivalence tests, bench_e2e mesh-step and the CI transient
    /// guard compare the shared path against. Both paths run the
    /// identical Newton iteration, so waveforms agree to solver rounding
    /// (<= 1e-12, CI-guarded).
    bool shared_solver = true;
    dc_options dc; ///< options for the initial operating point
};

struct tran_result {
    std::vector<real> time;
    std::vector<std::vector<real>> solution; ///< [step][unknown]
    /// Shared-path solver counters (all zero on the one-shot/dense path).
    tran_solver_stats solver;

    [[nodiscard]] std::size_t step_count() const noexcept { return time.size(); }

    /// Waveform of one unknown over time.
    [[nodiscard]] std::vector<real> unknown_waveform(std::size_t index) const;
};

/// Run a transient analysis starting from the DC operating point.
[[nodiscard]] tran_result transient(circuit& c, const tran_options& opt);

/// Time-domain waveform of a named node.
[[nodiscard]] std::vector<real> node_waveform(const circuit& c, const tran_result& res,
                                              const std::string& node_name);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_TRAN_ANALYSIS_H
