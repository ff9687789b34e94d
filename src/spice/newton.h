// The Newton–Raphson loop shared by DC operating points and transient
// time steps: one iteration, one convergence test and one place the
// linear solves go.
//
// Convergence follows SPICE3's NIconvTest. An iterate converges when
// every unknown moved by at most reltol * max(|old|, |new|) plus an
// absolute floor (vntol for node voltages, abstol for branch currents)
// AND no device limited or initialized a junction while stamping it
// (`noncon` == 0): a limited device was linearized somewhere other than
// the candidate solution, so a small update proves nothing there.
#ifndef ACSTAB_SPICE_NEWTON_H
#define ACSTAB_SPICE_NEWTON_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spice/device.h"
#include "spice/mna.h"
#include "spice/tran_solver.h"

namespace acstab::spice {

struct newton_tolerances {
    real reltol = 1e-3;
    real vntol = 1e-6;  ///< node-voltage floor [V]
    real abstol = 1e-12; ///< branch-current floor [A]
};

/// SPICE3 convergence test of one Newton update x_old -> x_new; the first
/// `nodes` unknowns are node voltages. Writes the largest |update| to
/// `worst` (for diagnostics) even when noncon > 0 decides the verdict.
[[nodiscard]] bool newton_converged(const std::vector<real>& x_old,
                                    const std::vector<real>& x_new, std::size_t nodes,
                                    const newton_tolerances& tol, int noncon, real& worst);

/// The linear solves of one Newton run. Shared mode runs every solve
/// through one spice::tran_solver (one symbolic analysis for the whole
/// run, numeric refactorization only when the assembled values change).
/// Otherwise every solve is a one-shot solve_system of kind `oneshot`:
/// the dense DC oracle and the one-shot transient oracle.
class newton_system {
public:
    newton_system(std::size_t n, bool shared, solver_kind oneshot);

    /// Builder for the next stamp pass, with matrix and RHS cleared.
    [[nodiscard]] system_builder<real>& begin_stamp();
    /// Solve the system stamped since begin_stamp(). Throws
    /// numeric_error when it is singular.
    [[nodiscard]] std::vector<real> solve();

    /// Shared-path counters; all zero on the one-shot path.
    [[nodiscard]] tran_solver_stats stats() const;

private:
    std::unique_ptr<tran_solver> shared_;
    solver_kind oneshot_;
    system_builder<real> builder_; ///< one-shot path only
};

struct newton_outcome {
    bool converged = false;
    int iterations = 0;
    real worst_delta = 0.0; ///< largest unknown update of the last iteration
    bool singular = false;  ///< the linearized system could not be factored
};

/// One ladder rung's verdict: how the Newton loop ended where it gave up.
[[nodiscard]] std::string describe_outcome(const newton_outcome& out);

/// Shortest round-trip number text for non-convergence diagnostics
/// (std::to_chars: locale-independent, unlike %g).
[[nodiscard]] std::string format_value(real v);

/// Append one attempted-strategy clause to the ladder diagnostic that a
/// final convergence_error carries.
void log_rung(std::string& ladder, const std::string& clause);

/// Newton iteration from x (updated in place to the last iterate; left
/// untouched by a singular solve). `stamp(x, builder)` stamps the
/// linearization at x and returns the pass's noncon count.
template <class Stamp>
newton_outcome newton_iterate(newton_system& sys, std::vector<real>& x, std::size_t nodes,
                              int max_iterations, const newton_tolerances& tol, Stamp&& stamp)
{
    newton_outcome out;
    for (int it = 0; it < max_iterations; ++it) {
        out.iterations = it + 1;
        std::vector<real> x_new;
        int noncon = 0;
        try {
            noncon = stamp(std::as_const(x), sys.begin_stamp());
            x_new = sys.solve();
        } catch (const numeric_error&) {
            out.singular = true;
            return out;
        }
        const bool converged = newton_converged(x, x_new, nodes, tol, noncon, out.worst_delta);
        x = std::move(x_new);
        if (converged) {
            out.converged = true;
            return out;
        }
    }
    return out;
}

} // namespace acstab::spice

#endif // ACSTAB_SPICE_NEWTON_H
