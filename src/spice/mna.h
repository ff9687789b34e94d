// Solve dispatch for assembled MNA systems: dense reference LU or sparse
// Gilbert–Peierls (the default). Shared by every analysis.
//
// This one-shot helper compresses and factors from scratch per call. It
// serves the oracles: dense DC Newton (dc_options::solver), the one-shot
// transient path (tran_options::shared_solver = false) and
// engine::reference_ac_sweep. Loops that solve the same pattern
// repeatedly should not use it: frequency sweeps go through
// engine::sweep_engine and DC and transient Newton solves through
// spice::tran_solver, both of which share one symbolic factorization and
// refactor numerically in place.
#ifndef ACSTAB_SPICE_MNA_H
#define ACSTAB_SPICE_MNA_H

#include <memory>
#include <vector>

#include "numeric/lu.h"
#include "numeric/sparse_factor.h"
#include "spice/device.h"

namespace acstab::spice {

enum class solver_kind { dense, sparse };

/// Factor the builder's matrix and solve against its right-hand side.
/// The sparse path adopts the seed values of the pivot-selecting
/// analysis, so the elimination runs once. Throws numeric_error on
/// singular systems.
template <class T>
[[nodiscard]] std::vector<T> solve_system(const system_builder<T>& b, solver_kind kind)
{
    if (kind == solver_kind::dense)
        return numeric::lu_decomposition<T>(b.matrix().to_dense()).solve(b.rhs());
    typename numeric::symbolic_lu<T>::factor_values seed;
    auto sym = std::make_shared<const numeric::symbolic_lu<T>>(numeric::csc_matrix<T>(b.matrix()),
                                                               numeric::lu_options{}, &seed);
    numeric::numeric_lu<T> lu(std::move(sym), std::move(seed));
    std::vector<T> x = b.rhs();
    lu.solve_in_place(x.data());
    return x;
}

} // namespace acstab::spice

#endif // ACSTAB_SPICE_MNA_H
