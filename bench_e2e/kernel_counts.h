// Kernel work computed from a symbolic LU's pattern arrays, not timed.
//
// Counting convention: one complex multiply-subtract or one complex
// division is 8 real flops. A left-looking refactorization of pivot
// column j applies one multiply-subtract per strict-L entry of every
// column k named by an off-diagonal entry of U(:, j), then divides the
// strict-L entries of column j by the pivot. A single-RHS solve applies
// every strict-L entry once (forward), every off-diagonal U entry once
// and one division per column (backward). Structural zeros padded into
// relaxed supernodes and the zero-lane skipping of the batched solve are
// not counted, so these are pattern counts, identical across runs and
// machines.
#ifndef BENCH_E2E_KERNEL_COUNTS_H
#define BENCH_E2E_KERNEL_COUNTS_H

#include <cstddef>

#include "numeric/sparse_factor.h"

namespace bench {

struct kernel_counts {
    double lu_nnz = 0.0;           ///< L (with unit diagonal) + U entries
    double supernodes = 0.0;       ///< blocked-path panel count
    double refactor_flops = 0.0;   ///< per refactorization
    double solve_flops = 0.0;      ///< per single right-hand side
};

template <class T>
[[nodiscard]] kernel_counts count_kernels(const acstab::numeric::symbolic_lu<T>& sym)
{
    const auto& lp = sym.lcol_ptr();
    const auto& up = sym.ucol_ptr();
    const auto& ur = sym.urow();
    const std::size_t n = sym.size();
    constexpr double flops_per_op = 8.0;

    double refactor_ops = 0.0;
    double solve_ops = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const double lnz_j = static_cast<double>(lp[j + 1] - lp[j]);
        // The diagonal is stored last in each U column.
        for (std::size_t p = up[j]; p + 1 < up[j + 1]; ++p) {
            const std::size_t k = ur[p];
            refactor_ops += static_cast<double>(lp[k + 1] - lp[k]);
        }
        refactor_ops += lnz_j;
        solve_ops += lnz_j + static_cast<double>(up[j + 1] - up[j]);
    }
    kernel_counts c;
    c.lu_nnz = static_cast<double>(sym.lower_nnz() + sym.upper_nnz());
    c.supernodes = static_cast<double>(sym.supernodes().count());
    c.refactor_flops = flops_per_op * refactor_ops;
    c.solve_flops = flops_per_op * solve_ops;
    return c;
}

} // namespace bench

#endif // BENCH_E2E_KERNEL_COUNTS_H
