// The symbolic/numeric sparse-LU split behind the sweep engine:
// solve_batch must match repeated single solves bit for bit, the
// shared-symbolic engine path must match the dense reference solver
// (serial and threaded), and a zero pivot under a reused pivot order must leave the
// shared symbolic object intact while the fresh-factor fallback recovers.
// Runs under the ASan/UBSan CI job like every other test.
#include <gtest/gtest.h>

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "circuits/opamp.h"
#include "circuits/rlc.h"
#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "numeric/interpolation.h"
#include "numeric/sparse_factor.h"
#include "spice/dc_analysis.h"

namespace {

using namespace acstab;

// --- solve_batch vs repeated solve ------------------------------------------

TEST(sparse_split, solve_batch_matches_repeated_solve)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 32);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t n = snap.size();

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(2.5e6), work);
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work);
    numeric::numeric_lu<cplx> lu(sym);
    lu.refactor(work);

    // A mixed batch: sparse unit injections plus one dense column.
    std::vector<std::vector<cplx>> batch;
    for (const std::size_t k : {std::size_t{0}, std::size_t{5}, n - 1}) {
        std::vector<cplx> rhs(n, cplx{});
        rhs[k] = cplx{1.0, 0.0};
        batch.push_back(std::move(rhs));
    }
    std::vector<cplx> dense(n);
    for (std::size_t i = 0; i < n; ++i)
        dense[i] = cplx{0.25 + static_cast<real>(i), -0.5 * static_cast<real>(i)};
    batch.push_back(std::move(dense));

    std::vector<const cplx*> cols;
    for (const auto& rhs : batch)
        cols.push_back(rhs.data());
    std::vector<cplx> x(n * batch.size());
    lu.solve_batch(cols.data(), batch.size(), x.data());

    for (std::size_t r = 0; r < batch.size(); ++r) {
        const std::vector<cplx> single = lu.solve(batch[r]);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(x[r * n + i], single[i]) << "rhs " << r << " entry " << i; // bit-identical
    }
}

TEST(sparse_split, solve_in_place_matches_allocating_solve)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 12);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t n = snap.size();

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e6), work);
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work);
    numeric::numeric_lu<cplx> lu(sym);
    lu.refactor(work);

    std::vector<cplx> b0(n, cplx{}), b1(n, cplx{});
    b0[1] = cplx{1.0, 0.0};
    b1[n - 2] = cplx{0.0, 2.0};
    const std::vector<cplx> x0 = lu.solve(b0);
    const std::vector<cplx> x1 = lu.solve(b1);

    // In-place: b and the solution share one buffer (the engine's probe).
    std::vector<cplx> y0 = b0, y1 = b1;
    lu.solve_in_place(y0.data());
    lu.solve_in_place(y1.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y0[i], x0[i]);
        EXPECT_EQ(y1[i], x1[i]);
    }
}

// --- shared symbolic vs the dense reference ---------------------------------

std::vector<std::vector<cplx>> run_allnodes(const engine::linearized_snapshot& snap,
                                            const std::vector<real>& freqs, std::size_t threads,
                                            std::size_t rhs_block,
                                            engine::solver_tuning tuning = {},
                                            spice::solver_kind solver = spice::solver_kind::sparse)
{
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < snap.node_count(); ++k)
        injections.push_back({k, cplx{1.0, 0.0}});
    engine::sweep_engine_options eopt;
    eopt.threads = threads;
    eopt.solver = solver;
    eopt.rhs_block = rhs_block;
    eopt.tuning = tuning;
    std::vector<std::vector<cplx>> sol(freqs.size() * injections.size());
    engine::sweep_engine(eopt).run_injections(
        snap, freqs, injections,
        [&sol, &injections](std::size_t fi, std::size_t ri, std::span<const cplx> s) {
            sol[fi * injections.size() + ri].assign(s.begin(), s.end());
        });
    return sol;
}

real max_rel_err(const std::vector<std::vector<cplx>>& a, const std::vector<std::vector<cplx>>& b)
{
    EXPECT_EQ(a.size(), b.size());
    real worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        real norm = 1e-30;
        for (const cplx& v : a[k])
            norm = std::max(norm, std::abs(v));
        for (std::size_t i = 0; i < a[k].size(); ++i)
            worst = std::max(worst, std::abs(a[k][i] - b[k][i]) / norm);
    }
    return worst;
}

TEST(sparse_split, shared_symbolic_matches_dense_reference)
{
    spice::circuit c;
    (void)circuits::build_opamp_buffer(c);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    sopt.gshunt = 1e-9;
    const engine::linearized_snapshot snap(c, op.solution, sopt);
    const std::vector<real> freqs = numeric::log_space(1e3, 1e9, 120);

    const auto dense = run_allnodes(snap, freqs, 1, 32, {}, spice::solver_kind::dense);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto shared = run_allnodes(snap, freqs, threads, 32);
        EXPECT_LT(max_rel_err(dense, shared), 1e-7) << threads << " threads";
    }
}

TEST(sparse_split, rhs_block_size_does_not_change_results)
{
    spice::circuit c;
    (void)circuits::build_opamp_buffer(c);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);
    const std::vector<real> freqs = numeric::log_space(1e4, 1e8, 60);

    // Under the default (SIMD) kernel the batch shape may legally change
    // rounding, so block sizes must agree to tolerance, not bytes.
    const auto batched = run_allnodes(snap, freqs, 1, 32);
    const auto unbatched = run_allnodes(snap, freqs, 1, 1);
    EXPECT_LT(max_rel_err(batched, unbatched), 1e-12);

    // The scalar kernel is one column at a time regardless of blocking:
    // there the block size must not change a single bit.
    engine::solver_tuning scalar;
    scalar.simd = false;
    const auto sc_batched = run_allnodes(snap, freqs, 1, 32, scalar);
    const auto sc_unbatched = run_allnodes(snap, freqs, 1, 1, scalar);
    ASSERT_EQ(sc_batched.size(), sc_unbatched.size());
    for (std::size_t k = 0; k < sc_batched.size(); ++k)
        EXPECT_EQ(sc_batched[k], sc_unbatched[k]) << k; // bit-identical per column
}

// --- zero-pivot fallback with a shared symbolic object ----------------------

numeric::csc_matrix<cplx> two_by_two(cplx a00, cplx a01, cplx a10, cplx a11)
{
    // Fixed full pattern so every variant shares the symbolic structure.
    return numeric::csc_matrix<cplx>(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {a00, a10, a01, a11});
}

TEST(sparse_split, zero_pivot_fallback_with_shared_symbolic)
{
    // Seed matrix: diagonal-dominant, so the shared pivot order takes the
    // structural diagonal.
    const numeric::csc_matrix<cplx> a1
        = two_by_two(cplx{2.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0});
    const auto shared = std::make_shared<const numeric::symbolic_lu<cplx>>(a1);

    numeric::numeric_lu<cplx> worker(shared);
    worker.refactor(a1);
    const std::vector<cplx> x1 = worker.solve({cplx{3.0, 0.0}, cplx{2.0, 0.0}});
    EXPECT_NEAR(std::abs(x1[0] - cplx{1.0, 0.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x1[1] - cplx{1.0, 0.0}), 0.0, 1e-12);

    // Same pattern, but A(0,0) = 0: nonsingular, yet an exact zero pivot
    // under the reused order — the chunk_solver fallback scenario.
    const numeric::csc_matrix<cplx> a2
        = two_by_two(cplx{}, cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0});
    EXPECT_THROW(worker.refactor(a2), numeric_error);

    // Fresh-factor path: re-pivot from the current values with a new local
    // symbolic object, exactly what the engine does on fallback.
    const auto local = std::make_shared<const numeric::symbolic_lu<cplx>>(a2);
    numeric::numeric_lu<cplx> fresh(local);
    fresh.refactor(a2);
    const std::vector<cplx> x2 = fresh.solve({cplx{1.0, 0.0}, cplx{2.0, 0.0}});
    EXPECT_NEAR(std::abs(x2[0] - cplx{1.0, 0.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x2[1] - cplx{1.0, 0.0}), 0.0, 1e-12);

    // The shared symbolic object is immutable: the worker that threw can
    // refactor against it again, and other workers can keep using it.
    worker.refactor(a1);
    const std::vector<cplx> x3 = worker.solve({cplx{3.0, 0.0}, cplx{2.0, 0.0}});
    EXPECT_EQ(x3, x1);
    numeric::numeric_lu<cplx> other(shared);
    other.refactor(a1);
    EXPECT_EQ(other.solve({cplx{3.0, 0.0}, cplx{2.0, 0.0}}), x1);
}

TEST(sparse_split, snapshot_caches_shared_symbolic)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 8);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});

    const auto s1 = snap.shared_symbolic(to_omega(1e6));
    const auto s2 = snap.shared_symbolic(to_omega(1e6));
    EXPECT_EQ(s1.get(), s2.get()); // cached, not recomputed
    const auto s3 = snap.shared_symbolic(to_omega(1e3));
    EXPECT_NE(s1.get(), s3.get()); // different reference frequency
    EXPECT_EQ(s1->size(), s3->size());
}

} // namespace
