// Dense LU factorization with partial pivoting.
//
// Works for real and complex scalars; this is the reference solver behind
// the MNA analyses (the sparse path in sparse_factor.h is the production
// one). solver_kind::dense selects it on stability_options, dc_options and
// sweep_engine_options, where tests and benches compare against it.
#ifndef ACSTAB_NUMERIC_LU_H
#define ACSTAB_NUMERIC_LU_H

#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "numeric/dense_matrix.h"

namespace acstab::numeric {

/// LU factorization PA = LU with row partial pivoting.
template <class T>
class lu_decomposition {
public:
    /// Factor a square matrix; throws numeric_error when singular.
    explicit lu_decomposition(dense_matrix<T> a) : lu_(std::move(a))
    {
        const std::size_t n = lu_.rows();
        if (n != lu_.cols())
            throw numeric_error("lu: matrix must be square");
        perm_.resize(n);
        std::iota(perm_.begin(), perm_.end(), std::size_t{0});

        for (std::size_t k = 0; k < n; ++k) {
            // Pick the pivot row by largest absolute value in column k.
            std::size_t pivot = k;
            double pivot_mag = std::abs(lu_(k, k));
            for (std::size_t i = k + 1; i < n; ++i) {
                const double mag = std::abs(lu_(i, k));
                if (mag > pivot_mag) {
                    pivot_mag = mag;
                    pivot = i;
                }
            }
            if (pivot_mag == 0.0)
                throw numeric_error("lu: singular matrix (zero pivot in column "
                                    + std::to_string(k) + ")");
            if (pivot != k) {
                swap_rows(k, pivot);
                std::swap(perm_[k], perm_[pivot]);
                sign_ = -sign_;
            }
            const T inv_pivot = T{1} / lu_(k, k);
            for (std::size_t i = k + 1; i < n; ++i) {
                const T factor = lu_(i, k) * inv_pivot;
                lu_(i, k) = factor;
                if (factor == T{})
                    continue;
                for (std::size_t j = k + 1; j < n; ++j)
                    lu_(i, j) -= factor * lu_(k, j);
            }
        }
    }

    [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

    /// Solve A x = b for one right-hand side.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const
    {
        const std::size_t n = size();
        if (b.size() != n)
            throw numeric_error("lu: right-hand side has wrong length");
        std::vector<T> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = b[perm_[i]];
        // Forward substitution with unit lower triangle.
        for (std::size_t i = 1; i < n; ++i) {
            T acc = x[i];
            for (std::size_t j = 0; j < i; ++j)
                acc -= lu_(i, j) * x[j];
            x[i] = acc;
        }
        // Back substitution with upper triangle.
        for (std::size_t ii = n; ii-- > 0;) {
            T acc = x[ii];
            for (std::size_t j = ii + 1; j < n; ++j)
                acc -= lu_(ii, j) * x[j];
            x[ii] = acc / lu_(ii, ii);
        }
        return x;
    }

    /// Solve A X = B column by column.
    [[nodiscard]] dense_matrix<T> solve(const dense_matrix<T>& b) const
    {
        const std::size_t n = size();
        if (b.rows() != n)
            throw numeric_error("lu: right-hand side has wrong row count");
        dense_matrix<T> x(n, b.cols());
        std::vector<T> col(n);
        for (std::size_t j = 0; j < b.cols(); ++j) {
            for (std::size_t i = 0; i < n; ++i)
                col[i] = b(i, j);
            const std::vector<T> sol = solve(col);
            for (std::size_t i = 0; i < n; ++i)
                x(i, j) = sol[i];
        }
        return x;
    }

    [[nodiscard]] T determinant() const
    {
        T det = static_cast<T>(sign_);
        for (std::size_t i = 0; i < size(); ++i)
            det *= lu_(i, i);
        return det;
    }

private:
    void swap_rows(std::size_t a, std::size_t b)
    {
        for (std::size_t j = 0; j < lu_.cols(); ++j)
            std::swap(lu_(a, j), lu_(b, j));
    }

    dense_matrix<T> lu_;
    std::vector<std::size_t> perm_;
    int sign_ = 1;
};

/// Convenience one-shot solve of A x = b.
template <class T>
[[nodiscard]] std::vector<T> solve_dense(dense_matrix<T> a, const std::vector<T>& b)
{
    return lu_decomposition<T>(std::move(a)).solve(b);
}

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_LU_H
