// DC operating-point analysis with SPICE3 Newton semantics, falling back
// to gmin stepping and then source stepping (the standard SPICE
// continuation ladder).
//
// - Junctions start at their critical voltage (MODEINITJCT): the first
//   iterate of every rung stamps a BJT's BE junction and a diode at
//   V_crit, a BC junction at 0 and a MOSFET at threshold with vds = 0,
//   whatever the guess says. Only that iterate is unconditionally
//   unconverged.
// - Devices limit their own voltage steps (pnjlim for junctions,
//   fetlim/limvds for MOSFETs) and linearize at the limited voltages.
//   Every limiter that fires counts one `noncon`, and no iterate with
//   noncon > 0 converges (spice/newton.h has the test).
// - There is no global step clamp: each Newton update is applied whole.
// - A converged point is accepted only after a KCL residual check at the
//   point itself: one stamp pass with limiting off and a product with the
//   assembled matrix, no factorization. A failed check fails the rung and
//   the ladder continues.
//
// With solver_kind::sparse every iteration of every rung runs through one
// spice::tran_solver: one symbolic analysis per call, and refactoring only
// when the assembled values change (a linear circuit's second iterate
// reuses its factors). solver_kind::dense solves each iterate with the
// dense reference LU through spice::solve_system.
#ifndef ACSTAB_SPICE_DC_ANALYSIS_H
#define ACSTAB_SPICE_DC_ANALYSIS_H

#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/mna.h"

namespace acstab::spice {

struct dc_options {
    real gmin = 1e-12;
    /// Node-to-ground shunt added to every node row; 0 disables. When the
    /// plain solve hits a singular matrix (floating node), the analysis
    /// retries once with `gshunt_retry` if that is positive.
    real gshunt = 0.0;
    real gshunt_retry = 1e-9;
    int max_iterations = 200;
    real reltol = 1e-3;
    real vntol = 1e-6;
    real abstol = 1e-12;
    solver_kind solver = solver_kind::sparse;
    bool allow_gmin_stepping = true;
    bool allow_source_stepping = true;
};

struct dc_result {
    std::vector<real> solution; ///< node voltages then branch currents
    int iterations = 0;         ///< Newton iterations summed over every rung that ran
    bool used_gmin_stepping = false;
    bool used_source_stepping = false;
    bool used_gshunt = false;
};

/// Compute the DC operating point. Throws convergence_error if every
/// continuation strategy fails.
[[nodiscard]] dc_result dc_operating_point(circuit& c, const dc_options& opt = {});

/// Voltage of a named node in a solution vector.
[[nodiscard]] real node_voltage(const circuit& c, const std::vector<real>& solution,
                                const std::string& node_name);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DC_ANALYSIS_H
