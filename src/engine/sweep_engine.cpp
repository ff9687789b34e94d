#include "engine/sweep_engine.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.h"
#include "engine/thread_pool.h"
#include "numeric/lu.h"
#include "numeric/sparse_factor.h"

namespace acstab::engine {

namespace {

    /// A claimable single-shot background task: whoever flips `claimed`
    /// first runs (or cancels) the work, everyone else blocks on `done`.
    /// This is what makes the pipelined warm start deadlock-free on the
    /// shared pool — a waiter that finds the task still unclaimed (every
    /// worker busy) claims it and runs it inline, paying exactly the
    /// cold path's cost instead of waiting on a thread that may itself
    /// be waiting.
    struct bg_refactor {
        std::atomic<int> claimed{0};
        std::atomic<bool> done{false};
        std::mutex m;
        std::condition_variable cv;
        std::function<void()> work;
        bool ok = false; ///< work outcome; valid only after join()

        void claim_and_run()
        {
            if (claimed.exchange(1, std::memory_order_acq_rel) != 0)
                return;
            work();
            {
                std::lock_guard<std::mutex> lock(m);
                done.store(true, std::memory_order_release);
            }
            cv.notify_all();
        }

        void join()
        {
            claim_and_run();
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [this] { return done.load(std::memory_order_acquire); });
        }

        /// Cancel if still unclaimed, else wait for the runner: after
        /// this returns, no thread will touch the submitter's buffers.
        void cancel_or_wait()
        {
            if (claimed.exchange(1, std::memory_order_acq_rel) == 0)
                return; // won the claim: the work never runs
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [this] { return done.load(std::memory_order_acquire); });
        }
    };

    /// Per-worker solver state: a pattern workspace plus a numeric
    /// factorization refactored in place frequency to frequency against a
    /// symbolic object that is either shared across all workers or local
    /// to the chunk. The steady-state factor/solve loop performs no heap
    /// allocations; only the fresh-factor fallback (stale pivot order)
    /// allocates, and only when it actually triggers.
    class chunk_solver {
    public:
        /// With a shared symbolic object the chunk skips its own symbolic
        /// pass entirely. Otherwise omega_ref seeds a local analysis; the
        /// chunk's middle frequency serves both ends of a log-spaced
        /// range far better than its first point.
        chunk_solver(const linearized_snapshot& snap, const sweep_engine_options& opt,
                     real omega_ref, std::shared_ptr<const numeric::symbolic_lu<cplx>> shared)
            : snap_(snap), opt_(opt), work_(snap.make_workspace())
        {
            if (opt_.solver == spice::solver_kind::sparse) {
                if (shared != nullptr) {
                    sym_ = std::move(shared);
                    num_.emplace(sym_);
                    configure(*num_);
                } else {
                    snap_.assemble(omega_ref, work_);
                    fresh_factor();
                }
                probe_b_.assign(snap_.size(), cplx{1.0, 0.0});
                probe_x_.resize(snap_.size());
                probe_r_.resize(snap_.size());
            }
        }

        chunk_solver(const chunk_solver&) = delete;
        chunk_solver& operator=(const chunk_solver&) = delete;

        ~chunk_solver()
        {
            // A still-queued background refactor references this object's
            // buffers: cancel it (or wait out a running one) before they
            // go away.
            if (pending_ != nullptr)
                pending_->cancel_or_wait();
        }

        /// Factor Y(j w) — or, with warm_start, decide that the previous
        /// point's factors are close enough to serve this one through
        /// iterative refinement. omega_next (0 = none) is the chunk's
        /// following grid point: with warm_pipeline its refactorization
        /// is launched onto the pool before this call returns, so it
        /// overlaps this point's batched back-solves. Throws
        /// numeric_error only if the matrix is singular under every
        /// pivot order (matching the direct path).
        void factor(real omega, real omega_next = 0.0)
        {
            snap_.assemble(omega, work_);
            omega_cur_ = omega;
            if (opt_.solver == spice::solver_kind::dense) {
                dense_.emplace(work_.to_dense());
                return;
            }
            if (pending_ != nullptr) {
                // A lookahead refactorization is in flight (or queued).
                // When it is exactly this point's matrix, adopt it: the
                // join claims an unclaimed task and runs it inline, so
                // the wait is bounded by one refactor and a worker-less
                // pool degrades to the cold path's cost. The adopted
                // factors came from identically assembled values, so
                // after the cold guard below the state is bit-for-bit
                // what cold_factor would have produced.
                if (omega == omega_bg_ && adopt_incoming()) {
                    if (num_->growth() > opt_.refactor_growth_limit
                        && probe_residual() > opt_.refactor_guard_tol)
                        fresh_factor();
                    factored_ = true;
                    omega_fact_ = omega;
                    warm_ = false;
                    bump(&sweep_stats::warm_accepts);
                    bump(&sweep_stats::cold_factors);
                    launch_lookahead(omega_next);
                    return;
                }
                // Mismatched frequency (the foreground went cold out of
                // order) or the background hit a zero pivot: discard and
                // take the normal path.
                if (pending_ != nullptr) {
                    pending_->cancel_or_wait();
                    pending_ = nullptr;
                }
            }
            if (opt_.tuning.warm_start && factored_ && warm_eligible(omega)) {
                // The warm guard keeps the cold path's two tiers but moves
                // the residual tier to where it is strongest: tier 1 is
                // still the free growth witness of the stale factors;
                // tier 2 is the per-right-hand-side backward-error contract
                // that refine_batch enforces on the *actual* solutions of
                // this frequency (with a cold refactor as the escape
                // hatch), which subsumes what an up-front synthetic probe
                // could establish without paying its extra solves.
                ymax_ = matrix_max();
                if (num_->growth() <= opt_.refactor_growth_limit) {
                    warm_ = true;
                    bump(&sweep_stats::warm_accepts);
                    launch_lookahead(omega_next);
                    return;
                }
                bump(&sweep_stats::warm_fallbacks);
            }
            warm_ = false;
            cold_factor();
            launch_lookahead(omega_next);
        }

        /// Back-solve a batch of right-hand sides against the current
        /// factorization; x is column-major n*nrhs (see
        /// numeric_lu::solve_batch for the aliasing contract). On the
        /// warm path every solution is refined until it meets the
        /// backward-error contract, with a cold refactor + re-solve as
        /// the escape hatch.
        void solve_batch(const cplx* const* b, std::size_t nrhs, cplx* x)
        {
            if (dense_) {
                // Reference path; allocation-freedom is not a goal here.
                const std::size_t n = snap_.size();
                for (std::size_t r = 0; r < nrhs; ++r) {
                    const std::vector<cplx> rhs(b[r], b[r] + n);
                    const std::vector<cplx> sol = dense_->solve(rhs);
                    std::copy(sol.begin(), sol.end(), x + r * n);
                }
                return;
            }
            num_->solve_batch(b, nrhs, x);
            if (!warm_)
                return;
            if (!refine_batch(b, nrhs, x)) {
                // Refinement stalled (frequency step too aggressive for
                // these values): go cold and redo the whole batch against
                // exact factors of the current Y(jw). Any in-flight
                // lookahead task targets the NEXT grid point's matrix, so
                // it is of no use here; it stays queued for that point.
                bump(&sweep_stats::warm_fallbacks);
                warm_ = false;
                cold_factor();
                num_->solve_batch(b, nrhs, x);
            }
        }

        /// diag[i] = (Y^-1)(unknowns[i], unknowns[i]) of the current
        /// factorization, by selected inversion (numeric_lu::
        /// inverse_diagonal). Needs exact factors: never call it after a
        /// warm-started factor().
        void inverse_diagonal(std::span<const std::size_t> unknowns, std::span<cplx> diag)
        {
            if (dense_) {
                // Reference path; allocation-freedom is not a goal here.
                std::vector<cplx> e(snap_.size(), cplx{});
                for (std::size_t i = 0; i < unknowns.size(); ++i) {
                    e[unknowns[i]] = cplx{1.0, 0.0};
                    diag[i] = dense_->solve(e)[unknowns[i]];
                    e[unknowns[i]] = cplx{};
                }
                return;
            }
            num_->inverse_diagonal(unknowns, diag);
        }

    private:
        /// Cold path: values-only refactor under the reused pivot order,
        /// guarded by growth + probe, with a fresh pivot-selecting
        /// factorization as the fallback.
        void cold_factor()
        {
            try {
                num_->refactor(work_);
            } catch (const numeric_error&) {
                // Exact zero pivot under the reused order; re-pivot from
                // the current values. A fresh factorization chooses its
                // pivots from this very matrix, so no guard is needed.
                fresh_factor();
                factored_ = true;
                omega_fact_ = omega_cur_;
                bump(&sweep_stats::cold_factors);
                return;
            }
            // Two-tier guard, at factor time, so every right-hand side of
            // the batch — not just the first — sees a validated
            // factorization. Tier 1 is free: the element growth computed
            // from the refactored values witnesses a stale pivot order.
            // Only when it looks suspicious does tier 2 solve a dense
            // all-ones probe (it excites every column, unlike a sparse
            // user RHS) and measure its backward error with an in-place
            // SpMV. The witness reads final L/U maxima, so growth that
            // cancels back down within a column can pass unprobed — the
            // accepted tradeoff for keeping the per-frequency loop free
            // of an unconditional extra solve; lower refactor_growth_limit
            // (0 probes every frequency) to trade speed back for paranoia.
            if (num_->growth() > opt_.refactor_growth_limit
                && probe_residual() > opt_.refactor_guard_tol)
                fresh_factor();
            factored_ = true;
            omega_fact_ = omega_cur_;
            bump(&sweep_stats::cold_factors);
        }

        [[nodiscard]] bool warm_eligible(real omega) const noexcept
        {
            const real ratio = omega > omega_fact_ ? omega / omega_fact_ : omega_fact_ / omega;
            return ratio <= opt_.warm_ratio_limit;
        }

        [[nodiscard]] real matrix_max() const noexcept
        {
            real m = 0.0;
            for (const cplx& v : work_.values())
                m = std::max(m, std::abs(v));
            return m;
        }

        /// Tier 2 of the warm guard: iterate refinement on the whole batch
        /// of stale-factor solutions until every column's normwise backward
        /// error against the freshly assembled Y(jw) meets the cold guard's
        /// tolerance; false when the iteration budget runs out first.
        ///
        /// Refinement is batched on purpose: each iteration costs ONE
        /// L/U traversal for all still-unconverged columns (solve_batch,
        /// so the SIMD kernel applies to corrections too) plus one cheap
        /// SpMV per column, instead of a full traversal per column per
        /// iteration. Columns retire from the active set as they converge,
        /// so late iterations only pay for the stragglers.
        [[nodiscard]] bool refine_batch(const cplx* const* b, std::size_t nrhs, cplx* x)
        {
            const std::size_t n = snap_.size();
            // Lazily grown to the engine's rhs_block; steady state is
            // allocation-free like the rest of the hot loop.
            if (resid_.size() < n * nrhs) {
                resid_.resize(n * nrhs);
                corr_.resize(n * nrhs);
            }
            if (bmax_.size() < nrhs) {
                bmax_.resize(nrhs);
                active_.resize(nrhs);
                rcol_.resize(nrhs);
            }
            std::size_t nactive = nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) {
                real bm = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    bm = std::max(bm, std::abs(b[r][i]));
                bmax_[r] = bm;
                active_[r] = r;
            }
            for (std::size_t iter = 0; iter <= opt_.warm_max_refine; ++iter) {
                // Residual + convergence test; converged columns drop out,
                // the rest compact their residuals into contiguous slots
                // for the batched correction solve.
                std::size_t pending = 0;
                for (std::size_t a = 0; a < nactive; ++a) {
                    const std::size_t r = active_[a];
                    cplx* res = resid_.data() + pending * n;
                    work_.multiply_into(x + r * n, res);
                    real residual = 0.0;
                    real xmax = 0.0;
                    for (std::size_t i = 0; i < n; ++i) {
                        res[i] = b[r][i] - res[i];
                        residual = std::max(residual, std::abs(res[i]));
                        xmax = std::max(xmax, std::abs(x[r * n + i]));
                    }
                    if (residual <= opt_.refactor_guard_tol * (ymax_ * xmax + bmax_[r]))
                        continue;
                    active_[pending] = r;
                    rcol_[pending] = res;
                    ++pending;
                }
                if (pending == 0)
                    return true;
                if (iter == opt_.warm_max_refine)
                    break;
                nactive = pending;
                num_->solve_batch(rcol_.data(), nactive, corr_.data());
                for (std::size_t a = 0; a < nactive; ++a) {
                    const std::size_t r = active_[a];
                    for (std::size_t i = 0; i < n; ++i)
                        x[r * n + i] += corr_[a * n + i];
                }
                bump(&sweep_stats::warm_refinements);
            }
            return false;
        }

        void bump(std::atomic<std::size_t> sweep_stats::* member) const noexcept
        {
            if (opt_.stats != nullptr)
                (opt_.stats->*member).fetch_add(1, std::memory_order_relaxed);
        }

        void configure(numeric::numeric_lu<cplx>& num) const
        {
            num.set_batch_kernel(opt_.tuning.simd ? numeric::batch_kernel::simd
                                                  : numeric::batch_kernel::scalar);
            num.set_supernodal(opt_.tuning.supernodal);
        }

        /// Join (or claim and run inline) the in-flight background
        /// refactorization, adopting its factors when it succeeded; true
        /// exactly then. On failure (zero pivot under the reused order)
        /// the current factors stay live and the caller falls back to
        /// the cold path.
        bool adopt_incoming()
        {
            if (pending_ == nullptr)
                return false;
            pending_->join();
            const bool ok = pending_->ok;
            pending_ = nullptr;
            if (!ok)
                return false;
            std::swap(num_, incoming_);
            omega_fact_ = omega_bg_;
            return true;
        }

        /// Lookahead prefetch: assemble the NEXT grid point's matrix into
        /// the spare workspace and kick its refactorization onto a pool
        /// worker, overlapping it with this point's batched back-solves.
        /// Assembly runs here on the foreground (it is cheap and snap_
        /// assembly is not advertised thread-safe against itself); only
        /// the refactor crosses the task boundary, and it never throws
        /// across it — a zero pivot is recorded as ok = false.
        void launch_lookahead(real omega_next)
        {
            if (!opt_.tuning.warm_pipeline || !(omega_next > 0.0))
                return;
            if (!bg_work_)
                bg_work_.emplace(snap_.make_workspace());
            if (!incoming_) {
                incoming_.emplace(sym_);
                configure(*incoming_);
            }
            snap_.assemble(omega_next, *bg_work_);
            omega_bg_ = omega_next;
            auto task = std::make_shared<bg_refactor>();
            task->work = [this, t = task.get()] {
                try {
                    incoming_->refactor(*bg_work_);
                    t->ok = true;
                } catch (...) {
                    t->ok = false;
                }
            };
            pending_ = task;
            thread_pool::shared().submit([task] { task->claim_and_run(); });
        }

        /// Normwise backward error of Y x = 1 for the all-ones probe:
        /// ||Y x - b||_inf / (||Y||_max ||x||_inf + ||b||_inf), so the
        /// threshold is meaningful for badly scaled circuits (milliohm
        /// branches, gigaohm nodes) where an absolute residual would trip
        /// on every frequency. Allocation-free; runs only when the growth
        /// witness already flagged the factorization.
        [[nodiscard]] real probe_residual()
        {
            std::copy(probe_b_.begin(), probe_b_.end(), probe_x_.begin());
            num_->solve_in_place(probe_x_.data());
            work_.multiply_into(probe_x_, probe_r_);
            real residual = 0.0;
            real xmax = 0.0;
            for (std::size_t i = 0; i < probe_r_.size(); ++i) {
                residual = std::max(residual, std::abs(probe_r_[i] - probe_b_[i]));
                xmax = std::max(xmax, std::abs(probe_x_[i]));
            }
            real ymax = 0.0;
            for (const cplx& v : work_.values())
                ymax = std::max(ymax, std::abs(v));
            return residual / (ymax * xmax + 1.0);
        }

        void fresh_factor()
        {
            // A queued lookahead task refactors incoming_ against the
            // OLD symbolic pattern this call is about to replace: cancel
            // it (or wait out a running one) before tearing that down.
            if (pending_ != nullptr) {
                pending_->cancel_or_wait();
                pending_ = nullptr;
            }
            // Adopt the seed values the pivot-selecting analysis computes
            // anyway instead of repeating the numeric elimination.
            numeric::lu_options sopt;
            sopt.ordering = opt_.tuning.ordering;
            numeric::symbolic_lu<cplx>::factor_values seed;
            sym_ = std::make_shared<const numeric::symbolic_lu<cplx>>(work_, sopt, &seed);
            num_.emplace(sym_, std::move(seed));
            configure(*num_);
            // The spare background object is bound to the old symbolic
            // pattern; rebuild it lazily against the new one.
            incoming_.reset();
        }

        const linearized_snapshot& snap_;
        const sweep_engine_options& opt_;
        numeric::csc_matrix<cplx> work_;
        std::shared_ptr<const numeric::symbolic_lu<cplx>> sym_;
        std::optional<numeric::numeric_lu<cplx>> num_;
        std::optional<numeric::lu_decomposition<cplx>> dense_;
        std::vector<cplx> probe_b_, probe_x_, probe_r_;
        // Warm-start batched-refinement scratch, lazily grown to the
        // engine's rhs_block on the first warm solve.
        std::vector<cplx> resid_, corr_;
        std::vector<real> bmax_;
        std::vector<std::size_t> active_;
        std::vector<const cplx*> rcol_;
        bool factored_ = false; ///< numeric factors valid (cold path ran)
        bool warm_ = false;     ///< current frequency served by stale factors
        real omega_fact_ = 0.0; ///< frequency of the current cold factors
        real omega_cur_ = 0.0;  ///< frequency of the assembled workspace
        real ymax_ = 0.0;       ///< max |Y| of the assembled workspace (warm)
        // Pipelined warm start: the spare numeric object the lookahead
        // refactorization fills, the next point's assembled workspace,
        // and the claimable in-flight task.
        std::optional<numeric::numeric_lu<cplx>> incoming_;
        std::optional<numeric::csc_matrix<cplx>> bg_work_;
        std::shared_ptr<bg_refactor> pending_;
        real omega_bg_ = 0.0; ///< frequency of the lookahead matrix
    };

} // namespace

sweep_engine::sweep_engine(sweep_engine_options opt) : opt_(opt) {}

std::size_t sweep_engine::resolved_threads() const noexcept
{
    return opt_.threads == 0 ? thread_pool::hardware_threads() : opt_.threads;
}

namespace {

    constexpr std::size_t no_prev = std::numeric_limits<std::size_t>::max();

    void check_grid(const std::vector<real>& freqs_hz)
    {
        if (freqs_hz.empty())
            throw analysis_error("sweep engine: empty frequency list");
        for (const real f : freqs_hz)
            if (!(f > 0.0))
                throw analysis_error("sweep engine: frequencies must be positive");
    }

    /// Shared chunked sweep. Every worker owns one chunk_solver and the
    /// state make_point() returns (allocated once, before its frequency
    /// loop); per frequency it factors Y(jw) and calls
    /// point(solver, fi). Templated so the per-point call inlines
    /// instead of going through a std::function.
    template <class MakePoint>
    void run_chunks(const linearized_snapshot& snap, const sweep_engine_options& opt,
                    std::size_t threads, const std::vector<real>& freqs_hz,
                    const MakePoint& make_point)
    {
        const std::size_t nf = freqs_hz.size();

        // One symbolic analysis for the whole sweep, computed (or fetched
        // from the snapshot's cache) on the calling thread before any
        // worker starts.
        std::shared_ptr<const numeric::symbolic_lu<cplx>> shared_sym;
        if (opt.solver == spice::solver_kind::sparse && opt.shared_symbolic)
            shared_sym = snap.shared_symbolic(opt.symbolic_omega_ref > 0.0
                                                  ? opt.symbolic_omega_ref
                                                  : to_omega(freqs_hz[nf / 2]),
                                              opt.tuning.ordering);

        // Balanced contiguous partition: exactly `workers` chunks, sizes
        // differing by at most one (a ceil-sized chunk count would leave
        // part of the thread budget idle).
        const std::size_t workers = std::max<std::size_t>(1, std::min(threads, nf));
        const std::size_t base = nf / workers;
        const std::size_t rem = nf % workers;

        thread_pool::shared().parallel_for(workers, workers, [&](std::size_t w) {
            const std::size_t begin = w * base + std::min(w, rem);
            const std::size_t end = begin + base + (w < rem ? 1 : 0);
            chunk_solver solver(snap, opt, to_omega(freqs_hz[begin + (end - begin) / 2]),
                                shared_sym);
            // All worker storage is allocated here, once; the frequency
            // loop below is allocation-free in steady state.
            auto point = make_point();
            for (std::size_t fi = begin; fi < end; ++fi) {
                // The lookahead (warm_pipeline) stops at the chunk edge:
                // the next chunk's points belong to another worker.
                solver.factor(to_omega(freqs_hz[fi]),
                              fi + 1 < end ? to_omega(freqs_hz[fi + 1]) : 0.0);
                point(solver, fi);
            }
        });
    }

    /// run_chunks with batched back-solves. bind_rhs(ri, slot, prev)
    /// returns a pointer to right-hand side ri, either borrowing caller
    /// storage directly or materializing into the worker's staging column
    /// `slot` (with `prev` as the slot's persistent sparse-update state).
    /// Right-hand sides are frequency independent, so a slot only changes
    /// when a different ri rotates into it.
    template <class BindRhs>
    void run_solves(const linearized_snapshot& snap, const sweep_engine_options& opt,
                    std::size_t threads, const std::vector<real>& freqs_hz, std::size_t nrhs,
                    const BindRhs& bind_rhs, const sweep_engine::sink& out)
    {
        check_grid(freqs_hz);
        if (nrhs == 0)
            return;
        const std::size_t n = snap.size();
        const std::size_t block = std::max<std::size_t>(1, std::min(opt.rhs_block, nrhs));
        run_chunks(snap, opt, threads, freqs_hz, [&] {
            return [&, staging = std::vector<cplx>(block * n, cplx{}),
                    prev = std::vector<std::size_t>(block, no_prev),
                    cols = std::vector<const cplx*>(block),
                    xbuf = std::vector<cplx>(block * n)](chunk_solver& solver,
                                                         std::size_t fi) mutable {
                for (std::size_t r0 = 0; r0 < nrhs; r0 += block) {
                    const std::size_t bn = std::min(block, nrhs - r0);
                    for (std::size_t j = 0; j < bn; ++j)
                        cols[j] = bind_rhs(r0 + j, staging.data() + j * n, prev[j]);
                    solver.solve_batch(cols.data(), bn, xbuf.data());
                    for (std::size_t j = 0; j < bn; ++j)
                        out(fi, r0 + j, std::span<const cplx>(xbuf.data() + j * n, n));
                }
            };
        });
    }

} // namespace

void sweep_engine::run(const linearized_snapshot& snap, const std::vector<real>& freqs_hz,
                       const std::vector<std::vector<cplx>>& rhs_batch, const sink& out) const
{
    for (const std::vector<cplx>& rhs : rhs_batch)
        if (rhs.size() != snap.size())
            throw analysis_error("sweep engine: right-hand side has wrong length");
    run_solves(snap, opt_, resolved_threads(), freqs_hz, rhs_batch.size(),
               [&rhs_batch](std::size_t ri, cplx*, std::size_t&) -> const cplx* {
                   return rhs_batch[ri].data();
               },
               out);
}

void sweep_engine::run_injections(const linearized_snapshot& snap,
                                  const std::vector<real>& freqs_hz,
                                  const std::vector<injection>& injections,
                                  const sink& out) const
{
    for (const injection& inj : injections)
        if (inj.index >= snap.size())
            throw analysis_error("sweep engine: injection index out of range");
    run_solves(snap, opt_, resolved_threads(), freqs_hz, injections.size(),
               [&injections](std::size_t ri, cplx* slot, std::size_t& prev) -> const cplx* {
                   // The slot column is all-zero except for the previously
                   // staged injection: clear just that index instead of an
                   // O(n) fill per (frequency x injection).
                   const injection& inj = injections[ri];
                   if (prev != no_prev)
                       slot[prev] = cplx{};
                   slot[inj.index] = inj.value;
                   prev = inj.index;
                   return slot;
               },
               out);
}

void sweep_engine::run_inverse_diagonal(const linearized_snapshot& snap,
                                        const std::vector<real>& freqs_hz,
                                        const std::vector<std::size_t>& unknowns,
                                        const diag_sink& out) const
{
    check_grid(freqs_hz);
    for (const std::size_t k : unknowns)
        if (k >= snap.size())
            throw analysis_error("sweep engine: unknown index out of range");
    if (unknowns.empty())
        return;
    // Selected inversion reads the factors themselves, so it needs exact
    // factors of every Y(jw): no stale warm-start factors.
    sweep_engine_options exact = opt_;
    exact.tuning.warm_start = false;
    run_chunks(snap, exact, resolved_threads(), freqs_hz, [&] {
        return [&, diag = std::vector<cplx>(unknowns.size())](chunk_solver& solver,
                                                              std::size_t fi) mutable {
            solver.inverse_diagonal(unknowns, diag);
            out(fi, diag);
        };
    });
}

void sweep_engine::for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const
{
    thread_pool::shared().parallel_for(count, std::max<std::size_t>(1, resolved_threads()), fn);
}

} // namespace acstab::engine
