// Dense and sparse LU: round-trips, pivoting, determinants, failure modes.
// The sparse cases run the one-shot idiom of spice::solve_system: a
// symbolic_lu that exports its seed values, adopted by a numeric_lu.
#include <gtest/gtest.h>

#include <complex>
#include <memory>
#include <random>

#include "common/error.h"
#include "common/types.h"
#include "numeric/lu.h"
#include "numeric/sparse_factor.h"
#include "numeric/sparse_matrix.h"

namespace {

using acstab::cplx;
using acstab::real;
using acstab::numeric_error;
using acstab::numeric::csc_matrix;
using acstab::numeric::dense_matrix;
using acstab::numeric::lu_decomposition;
using acstab::numeric::lu_options;
using acstab::numeric::numeric_lu;
using acstab::numeric::symbolic_lu;
using acstab::numeric::triplet_matrix;

/// Factor once (seed values adopted, no second elimination) and solve.
template <class T>
std::vector<T> sparse_solve(const csc_matrix<T>& a, const std::vector<T>& b)
{
    typename symbolic_lu<T>::factor_values seed;
    auto sym = std::make_shared<const symbolic_lu<T>>(a, lu_options{}, &seed);
    numeric_lu<T> lu(std::move(sym), std::move(seed));
    return lu.solve(b);
}

TEST(dense_lu, solves_small_system)
{
    dense_matrix<real> a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const lu_decomposition<real> lu(a);
    const std::vector<real> x = lu.solve(std::vector<real>{5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(dense_lu, requires_pivoting)
{
    // Zero on the initial diagonal forces a row swap.
    dense_matrix<real> a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    const lu_decomposition<real> lu(a);
    const std::vector<real> x = lu.solve(std::vector<real>{3.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(dense_lu, detects_singular)
{
    dense_matrix<real> a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_THROW(lu_decomposition<real>{a}, numeric_error);
}

TEST(dense_lu, determinant_matches_known)
{
    dense_matrix<real> a(3, 3);
    a(0, 0) = 6.0;
    a(0, 1) = 1.0;
    a(0, 2) = 1.0;
    a(1, 0) = 4.0;
    a(1, 1) = -2.0;
    a(1, 2) = 5.0;
    a(2, 0) = 2.0;
    a(2, 1) = 8.0;
    a(2, 2) = 7.0;
    const lu_decomposition<real> lu(a);
    EXPECT_NEAR(lu.determinant(), -306.0, 1e-9);
}

TEST(dense_lu, random_round_trip)
{
    std::mt19937 rng(42);
    std::uniform_real_distribution<real> dist(-1.0, 1.0);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 5 + static_cast<std::size_t>(trial);
        dense_matrix<real> a(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j)
                a(i, j) = dist(rng);
            a(i, i) += 3.0; // keep well-conditioned
        }
        std::vector<real> x_true(n);
        for (auto& v : x_true)
            v = dist(rng);
        const std::vector<real> b = a * x_true;
        const std::vector<real> x = lu_decomposition<real>(a).solve(b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-9);
    }
}

TEST(dense_lu, complex_round_trip)
{
    std::mt19937 rng(7);
    std::uniform_real_distribution<real> dist(-1.0, 1.0);
    const std::size_t n = 12;
    dense_matrix<cplx> a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = cplx{dist(rng), dist(rng)};
        a(i, i) += cplx{4.0, 1.0};
    }
    std::vector<cplx> x_true(n);
    for (auto& v : x_true)
        v = cplx{dist(rng), dist(rng)};
    const std::vector<cplx> b = a * x_true;
    const std::vector<cplx> x = lu_decomposition<cplx>(a).solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_LT(std::abs(x[i] - x_true[i]), 1e-9);
}

TEST(sparse_lu, matches_dense_on_random_sparse)
{
    std::mt19937 rng(123);
    std::uniform_real_distribution<real> dist(-1.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, 29);
    const std::size_t n = 30;
    triplet_matrix<real> t(n, n);
    dense_matrix<real> d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        t.add(i, i, 5.0);
        d(i, i) += 5.0;
    }
    for (int k = 0; k < 150; ++k) {
        const std::size_t i = pick(rng);
        const std::size_t j = pick(rng);
        const real v = dist(rng);
        t.add(i, j, v);
        d(i, j) += v;
    }
    std::vector<real> b(n);
    for (auto& v : b)
        v = dist(rng);
    const std::vector<real> xs = sparse_solve(csc_matrix<real>(t), b);
    const std::vector<real> xd = lu_decomposition<real>(d).solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(sparse_lu, complex_tridiagonal)
{
    const std::size_t n = 50;
    triplet_matrix<cplx> t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        t.add(i, i, cplx{4.0, 0.5});
        if (i + 1 < n) {
            t.add(i, i + 1, cplx{-1.0, 0.0});
            t.add(i + 1, i, cplx{-1.0, 0.1});
        }
    }
    std::vector<cplx> x_true(n);
    for (std::size_t i = 0; i < n; ++i)
        x_true[i] = cplx{static_cast<real>(i) * 0.1, -0.2};
    const csc_matrix<cplx> a(t);
    const std::vector<cplx> b = a.multiply(x_true);
    const std::vector<cplx> x = sparse_solve(a, b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_LT(std::abs(x[i] - x_true[i]), 1e-9);
}

TEST(sparse_lu, permuted_identity)
{
    // Pure permutation matrix exercises pivoting without elimination.
    const std::size_t n = 6;
    triplet_matrix<real> t(n, n);
    for (std::size_t i = 0; i < n; ++i)
        t.add(i, (i + 2) % n, 1.0);
    std::vector<real> b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<real>(i + 1);
    const std::vector<real> x = sparse_solve(csc_matrix<real>(t), b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[(i + 2) % n], b[i], 1e-12);
}

TEST(sparse_lu, detects_singular)
{
    triplet_matrix<real> t(3, 3);
    t.add(0, 0, 1.0);
    t.add(1, 1, 1.0);
    // Column 2 is structurally empty.
    EXPECT_THROW(symbolic_lu<real>{csc_matrix<real>(t)}, numeric_error);
}

TEST(sparse_lu, duplicate_entries_are_summed)
{
    triplet_matrix<real> t(2, 2);
    t.add(0, 0, 1.0);
    t.add(0, 0, 1.0);
    t.add(1, 1, 3.0);
    const std::vector<real> x = sparse_solve(csc_matrix<real>(t), std::vector<real>{4.0, 9.0});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

} // namespace
