// A5 — large-circuit solver scaling on the generated stress corpus
// (`acstab gen`, src/gen/netlist_gen.h): the PR 6 ablation, extended in
// PR 9 with the supernodal/approx-ordering/pipelined round-2 stack.
//
//   * fill table: L+U nonzeros of the shared symbolic factorization under
//     the column pre-orderings (none / count / amd / amd-approx) on RC
//     ladders and 2-D RC meshes. The mesh is the discriminating workload
//     — every interior column has the same degree, so the count heuristic
//     degenerates to the natural order and fills like n*k while minimum
//     degree stays near n*log n; amd-approx must track exact amd's fill.
//     CI asserts the >= 2x reduction from the amd rows of this table.
//   * phase breakdown ("scaling_phase" rows): wall time of each solver
//     phase in isolation — exact vs approximate minimum-degree ordering,
//     the full symbolic analysis, one numeric refactorization on the
//     column vs the supernodal path, and one 24-RHS batched back-solve
//     on each path (with the blocked-vs-column solution equivalence
//     recorded as max_rel_err). CI's perf-ratio guard reads the
//     refactor_column / refactor_supernodal pair of this table.
//   * sweep ablation: wall time per frequency point of a serial
//     injection sweep under the stacked solver configurations —
//       pr5            count ordering, scalar kernel, cold refactor per
//                      frequency (the PR 5 solver path, the baseline)
//       amd            minimum-degree ordering only
//       amd_simd       + the split real/imag vectorized batch kernel
//       amd_simd_warm  + frequency-coherence warm-started refactorization
//       amdx_simd      approximate minimum degree + SIMD (column path)
//       amdx_sn_simd   + the supernodal/blocked numeric path (the PR 9
//                      default configuration)
//       amdx_sn_pipe   + the pipelined warm start (the next point's
//                      refactorization runs on a pool worker while this
//                      point's batches solve; bit-identical to cold)
//     with each configuration's answers checked against the first
//     configuration run at that size and the warm accept/fallback
//     counters reported. The ablation runs in both right-hand-side
//     regimes because they favor opposite configurations: 24 probes (the
//     all-nodes stability shape — the regime the classic warm start
//     loses; the pipelined variant stays correct here and wins given a
//     spare core, though a core-starved host pays a ~1.1-1.2x
//     contention tax at 8k — see the CI tripwire) and 1 probe (the
//     single-node stability / ac / impedance / loopgain shape). The
//     scalar column modes are skipped above ~4k unknowns in the 24-probe
//     regime (hours of wall clock for a known-overtaken configuration).
//   * all-nodes diagonal ("scaling_alldiag" rows, rcmesh only): the
//     `stability --all` shape, diag(Y^-1) at every node on an 11-point
//     grid, by selected inversion (alldiag_selinv) and by one back-solve
//     per node (alldiag_solve) in the same run. CI guards the pair's
//     agreement (1e-12) and the solve/selinv ratio at 2k.
//
// Prints tables plus one machine-readable ACSTAB_BENCH_JSON line; the
// committed BENCH_9.json at the repo root is this line's array (see
// README "Benchmarks"). --quick restricts sizes/grids for the CI smoke
// job; this binary registers no google-benchmark cases.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <memory>

#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "gen/netlist_gen.h"
#include "numeric/amd_order.h"
#include "numeric/interpolation.h"
#include "numeric/sparse_factor.h"
#include "spice/ac_analysis.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;

struct row {
    std::string bench;          ///< "scaling_fill" | "_phase" | "_sweep" | "_alldiag"
    std::string kind;           ///< "ladder" | "rcmesh"
    std::size_t unknowns = 0;
    std::string mode;           ///< ordering name or sweep configuration
    long long probes = -1;      ///< right-hand sides of the sweep ablation
    long long lu_nnz = -1;      ///< L+U nonzeros of the symbolic pattern
    double ms_per_freq = -1.0;  ///< sweep wall time / frequency count
    long long factors = -1;     ///< cold numeric factorizations
    long long warm_accepts = -1;
    long long warm_fallbacks = -1;
    double max_rel_err = 0.0;   ///< vs the pr5 baseline magnitudes
};

std::vector<row>& results()
{
    static std::vector<row> r;
    return r;
}

void emit_json()
{
    std::fputs("ACSTAB_BENCH_JSON [", stdout);
    for (std::size_t i = 0; i < results().size(); ++i) {
        const row& r = results()[i];
        std::printf("%s{\"bench\":\"%s\",\"kind\":\"%s\",\"unknowns\":%zu,"
                    "\"mode\":\"%s\",\"probes\":%lld,\"lu_nnz\":%lld,\"ms_per_freq\":%.5f,"
                    "\"factors\":%lld,\"warm_accepts\":%lld,\"warm_fallbacks\":%lld,"
                    "\"max_rel_err\":%.3g}",
                    i == 0 ? "" : ",", r.bench.c_str(), r.kind.c_str(), r.unknowns,
                    r.mode.c_str(), r.probes, r.lu_nnz, r.ms_per_freq, r.factors,
                    r.warm_accepts, r.warm_fallbacks, r.max_rel_err);
    }
    std::puts("]");
}

double time_ms(const std::function<void()>& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// One generated workload, parsed and linearized once, shared by the
/// fill table and the sweep ablation.
struct workload {
    std::string kind;
    spice::parsed_netlist net;
    std::vector<real> op;

    workload(const std::string& kind_, std::size_t size)
        : kind(kind_)
    {
        gen::gen_options gopt;
        gopt.size = size;
        net = spice::parse_netlist(gen::generate_netlist(kind, gopt));
        net.ckt.finalize();
        op = spice::dc_operating_point(net.ckt).solution;
    }
};

const char* ordering_name(numeric::column_ordering o)
{
    switch (o) {
    case numeric::column_ordering::none: return "none";
    case numeric::column_ordering::count: return "count";
    case numeric::column_ordering::amd: return "amd";
    case numeric::column_ordering::amd_approx: return "amd-approx";
    }
    return "?";
}

/// L+U nonzero counts of the symbolic pattern under each pre-ordering,
/// on the complex MNA matrix assembled at the band's middle frequency.
void print_fill_table(const std::vector<std::size_t>& sizes)
{
    std::puts("==============================================================================");
    std::puts("A5a — symbolic fill (L+U nonzeros) vs column pre-ordering, generated corpus");
    std::puts("==============================================================================");
    std::puts("kind     unknowns    A nnz      none      count        amd amd-approx  amd/cnt");
    std::puts("------------------------------------------------------------------------------");
    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            const engine::linearized_snapshot snap(w.net.ckt, w.op, {});
            numeric::csc_matrix<cplx> work = snap.make_workspace();
            snap.assemble(to_omega(1e6), work);
            std::size_t nnz[4] = {0, 0, 0, 0};
            for (const auto o : {numeric::column_ordering::none,
                                 numeric::column_ordering::count,
                                 numeric::column_ordering::amd,
                                 numeric::column_ordering::amd_approx}) {
                numeric::lu_options lopt;
                lopt.ordering = o;
                const numeric::symbolic_lu<cplx> sym(work, lopt);
                nnz[static_cast<int>(o)] = sym.lower_nnz() + sym.upper_nnz();
                results().push_back({"scaling_fill", kind, snap.size(), ordering_name(o), -1,
                                     static_cast<long long>(nnz[static_cast<int>(o)])});
            }
            std::printf("%-8s %8zu %8zu  %8zu   %8zu   %8zu   %8zu   %5.2fx\n", kind.c_str(),
                        snap.size(), work.nnz(), nnz[0], nnz[1], nnz[2], nnz[3],
                        static_cast<double>(nnz[1]) / static_cast<double>(nnz[2]));
        }
    }
    std::puts("");
}

/// Wall time of each solver phase in isolation — ordering (exact vs
/// approximate minimum degree), full symbolic analysis, one numeric
/// refactorization and one 24-RHS batched back-solve on the column and
/// the supernodal paths — plus the blocked-vs-column solution agreement.
void print_phase_breakdown(const std::vector<std::size_t>& sizes, int repeats)
{
    std::puts("==============================================================================");
    std::puts("A5d — per-phase wall time [ms], column vs supernodal numeric paths");
    std::puts("==============================================================================");
    std::puts("kind     unknowns  order_amd  order_amdx  symbolic  refac_col  refac_sn  "
              "solve24_col  solve24_sn  sn err");
    std::puts("------------------------------------------------------------------------------");
    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            const engine::linearized_snapshot snap(w.net.ckt, w.op, {});
            const std::size_t n = snap.size();
            numeric::csc_matrix<cplx> work = snap.make_workspace();
            snap.assemble(to_omega(1e6), work);
            const int reps = size > 4000 ? std::max(1, repeats / 2) : repeats;

            const auto best_of = [reps](const std::function<void()>& fn) {
                double ms = 1e300;
                for (int rep = 0; rep < reps; ++rep)
                    ms = std::min(ms, time_ms(fn));
                return ms;
            };

            std::vector<std::size_t> order;
            const double ms_amd = best_of([&] {
                order = numeric::minimum_degree_order(n, work.col_ptr(), work.row_idx());
            });
            const double ms_amdx = best_of([&] {
                order = numeric::approx_minimum_degree_order(n, work.col_ptr(), work.row_idx());
            });

            numeric::lu_options lopt;
            lopt.ordering = numeric::column_ordering::amd_approx;
            std::shared_ptr<const numeric::symbolic_lu<cplx>> sym;
            const double ms_sym = best_of([&] {
                sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work, lopt);
            });

            numeric::numeric_lu<cplx> col(sym);
            col.set_batch_kernel(numeric::batch_kernel::simd);
            numeric::numeric_lu<cplx> blk(sym);
            blk.set_batch_kernel(numeric::batch_kernel::simd);
            blk.set_supernodal(true);
            col.refactor(work); // prime allocations outside the timed region
            blk.refactor(work);
            const double ms_refac_col = best_of([&] { col.refactor(work); });
            const double ms_refac_sn = best_of([&] { blk.refactor(work); });

            constexpr std::size_t nrhs = 24;
            std::vector<std::vector<cplx>> rhs(nrhs, std::vector<cplx>(n, cplx{}));
            for (std::size_t r = 0; r < nrhs; ++r)
                rhs[r][(r * 31) % n] = cplx{1.0, 0.0};
            std::vector<const cplx*> cols;
            for (const auto& b : rhs)
                cols.push_back(b.data());
            std::vector<cplx> xc(n * nrhs);
            std::vector<cplx> xb(n * nrhs);
            const double ms_solve_col = best_of([&] {
                col.solve_batch(cols.data(), nrhs, xc.data());
            });
            const double ms_solve_sn = best_of([&] {
                blk.solve_batch(cols.data(), nrhs, xb.data());
            });
            double err = 0.0;
            for (std::size_t i = 0; i < xc.size(); ++i) {
                const double mag = std::max(std::abs(xc[i]), std::abs(xb[i]));
                if (mag > 1e-30)
                    err = std::max(err, std::abs(xc[i] - xb[i]) / mag);
            }

            std::printf("%-8s %8zu   %8.2f    %8.2f  %8.2f   %8.2f  %8.2f     %8.3f    "
                        "%8.3f  %.2g\n",
                        kind.c_str(), n, ms_amd, ms_amdx, ms_sym, ms_refac_col, ms_refac_sn,
                        ms_solve_col, ms_solve_sn, err);
            const auto phase_row = [&](const char* mode, double ms, long long probes,
                                       double rel_err) {
                results().push_back({"scaling_phase", kind, n, mode, probes, -1, ms, -1, -1,
                                     -1, rel_err});
            };
            phase_row("order_amd", ms_amd, -1, 0.0);
            phase_row("order_amd_approx", ms_amdx, -1, 0.0);
            phase_row("symbolic", ms_sym, -1, 0.0);
            phase_row("refactor_column", ms_refac_col, -1, 0.0);
            phase_row("refactor_supernodal", ms_refac_sn, -1, 0.0);
            phase_row("solve24_column", ms_solve_col, 24, 0.0);
            phase_row("solve24_supernodal", ms_solve_sn, 24, err);
        }
    }
    std::puts("");
}

struct sweep_mode {
    const char* name;
    engine::solver_tuning tuning;
    /// Skip this configuration above ~4k unknowns (the scalar column
    /// modes: hours of wall clock for a known-overtaken path).
    bool skip_large = false;
};

engine::solver_tuning make_tuning(numeric::column_ordering ordering, bool simd, bool warm,
                                  bool supernodal, bool pipeline)
{
    engine::solver_tuning t;
    t.ordering = ordering;
    t.simd = simd;
    t.warm_start = warm;
    t.supernodal = supernodal;
    t.warm_pipeline = pipeline;
    return t;
}

/// Serial batched injection sweep (the all-nodes stability shape: one
/// unit-current stimulus per probed node) under one solver configuration.
/// magnitude[ri][fi] of the response at the injected node.
std::vector<std::vector<real>> run_sweep(const workload& w,
                                         const engine::linearized_snapshot& snap,
                                         const std::vector<real>& freqs,
                                         const std::vector<engine::sweep_engine::injection>& inj,
                                         const engine::solver_tuning& tuning,
                                         engine::sweep_stats* stats)
{
    engine::sweep_engine_options eopt;
    eopt.threads = 1;
    eopt.tuning = tuning;
    eopt.stats = stats;
    std::vector<std::vector<real>> mag(inj.size(), std::vector<real>(freqs.size(), 0.0));
    engine::sweep_engine(eopt).run_injections(
        snap, freqs, inj,
        [&mag, &inj](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
            mag[ri][fi] = std::abs(sol[inj[ri].index]);
        });
    return mag;
}

double max_rel_err(const std::vector<std::vector<real>>& a,
                   const std::vector<std::vector<real>>& b)
{
    double worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t f = 0; f < a[k].size(); ++f) {
            const double scale = std::max({std::fabs(a[k][f]), std::fabs(b[k][f]), 1e-30});
            worst = std::max(worst, std::fabs(a[k][f] - b[k][f]) / scale);
        }
    return worst;
}

/// Time per frequency point of the four solver configurations, serial,
/// on a dense enough grid (40/decade) that neighboring points fall
/// inside the warm-start eligibility window (ratio 1.059 < 1.1).
void print_sweep_ablation(const char* title, std::size_t nprobes,
                          const std::vector<std::size_t>& sizes, int repeats)
{
    std::puts("==============================================================================");
    std::printf("%s\n", title);
    std::puts("      pr5 = count ordering + scalar kernel + cold refactor per frequency");
    std::puts("==============================================================================");
    std::puts("kind     unknowns  mode            ms/freq   speedup   cold   warm   max err");
    std::puts("------------------------------------------------------------------------------");

    using co = numeric::column_ordering;
    const std::vector<sweep_mode> modes = {
        {"pr5", make_tuning(co::count, false, false, false, false), true},
        {"amd", make_tuning(co::amd, false, false, false, false), true},
        {"amd_simd", make_tuning(co::amd, true, false, false, false)},
        {"amd_simd_warm", make_tuning(co::amd, true, true, false, false)},
        {"amdx_simd", make_tuning(co::amd_approx, true, false, false, false)},
        {"amdx_sn_simd", make_tuning(co::amd_approx, true, false, true, false)},
        {"amdx_sn_pipe", make_tuning(co::amd_approx, true, false, true, true)},
    };
    const std::vector<real> freqs = numeric::log_grid(1e4, 1e7, 40);

    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            engine::snapshot_options sopt;
            sopt.gshunt = 1e-9;
            sopt.zero_all_sources = true;
            const engine::linearized_snapshot snap(w.net.ckt, w.op, sopt);

            // Unit-current probes spread evenly over the non-forced nodes
            // (the stability sweeps' stimulus shape, bounded so the
            // per-frequency batch cost stays comparable across sizes).
            const std::vector<bool> forced = w.net.ckt.source_forced_nodes();
            std::vector<engine::sweep_engine::injection> inj;
            const std::size_t nodes = w.net.ckt.node_count();
            const std::size_t stride = std::max<std::size_t>(1, nodes / (nprobes + 1));
            for (std::size_t k = 0; k < nodes && inj.size() < nprobes; k += stride)
                if (!forced[k])
                    inj.push_back({k, cplx{1.0, 0.0}});

            std::vector<std::vector<real>> baseline;
            double pr5_ms = 0.0;
            // Above ~4k unknowns a single pass is already seconds long and
            // far above timer noise; best-of-N only matters for the small
            // fast cases.
            const int reps = size > 4000 ? 1 : repeats;
            for (const sweep_mode& m : modes) {
                if (m.skip_large && nprobes > 1 && size > 4000)
                    continue;
                engine::sweep_stats stats;
                std::vector<std::vector<real>> mag;
                double ms = 1e300;
                for (int rep = 0; rep < reps; ++rep) {
                    engine::sweep_stats fresh;
                    ms = std::min(ms, time_ms([&] {
                        mag = run_sweep(w, snap, freqs, inj, m.tuning, &fresh);
                    }));
                    if (rep + 1 == reps) {
                        stats.cold_factors = fresh.cold_factors.load();
                        stats.warm_accepts = fresh.warm_accepts.load();
                        stats.warm_fallbacks = fresh.warm_fallbacks.load();
                    }
                }
                const double per_freq = ms / static_cast<double>(freqs.size());
                if (baseline.empty()) {
                    baseline = mag;
                    pr5_ms = ms;
                }
                const double err = max_rel_err(baseline, mag);
                std::printf("%-8s %8zu  %-14s %8.4f   %6.2fx  %5zu  %5zu   %.2g\n",
                            kind.c_str(), snap.size(), m.name, per_freq, pr5_ms / ms,
                            stats.cold_factors.load(), stats.warm_accepts.load(), err);
                results().push_back({"scaling_sweep", kind, snap.size(), m.name,
                                     static_cast<long long>(inj.size()), -1, per_freq,
                                     static_cast<long long>(stats.cold_factors.load()),
                                     static_cast<long long>(stats.warm_accepts.load()),
                                     static_cast<long long>(stats.warm_fallbacks.load()), err});
            }
        }
    }
    std::puts("");
}

/// All-nodes driving-point impedances, the `stability --all` shape: the
/// diagonal of Y(jw)^-1 at every non-forced node on a short grid, by
/// selected inversion (run_inverse_diagonal, the product path) and by one
/// unit-current back-solve per node (run_injections, the oracle), serial
/// and measured in the same run. max_rel_err compares the two diagonals.
void print_alldiag(const std::vector<std::size_t>& sizes)
{
    std::puts("==============================================================================");
    std::puts("A5e — all-nodes diagonal of Y^-1, ms per frequency point (serial, 11 points)");
    std::puts("==============================================================================");
    std::puts("kind     unknowns   nodes   selinv ms   solve ms   solve/selinv   max err");
    std::puts("------------------------------------------------------------------------------");
    const std::vector<real> freqs = numeric::log_grid(1e3, 1e8, 2);
    for (const std::size_t size : sizes) {
        workload w("rcmesh", size);
        engine::snapshot_options sopt;
        sopt.gshunt = 1e-9;
        sopt.zero_all_sources = true;
        const engine::linearized_snapshot snap(w.net.ckt, w.op, sopt);
        const std::vector<bool> forced = w.net.ckt.source_forced_nodes();
        std::vector<std::size_t> nodes;
        std::vector<engine::sweep_engine::injection> inj;
        for (std::size_t k = 0; k < w.net.ckt.node_count(); ++k)
            if (!forced[k]) {
                nodes.push_back(k);
                inj.push_back({k, cplx{1.0, 0.0}});
            }

        // Both paths share the snapshot's symbolic object: build it
        // before either is timed.
        const engine::sweep_engine eng{};
        static_cast<void>(snap.shared_symbolic(to_omega(freqs[freqs.size() / 2]),
                                               eng.options().tuning.ordering));
        std::vector<std::vector<cplx>> sel(freqs.size(), std::vector<cplx>(nodes.size()));
        std::vector<std::vector<cplx>> sol = sel;
        const double ms_sel = time_ms([&] {
            eng.run_inverse_diagonal(snap, freqs, nodes,
                                     [&sel](std::size_t fi, std::span<const cplx> diag) {
                                         std::copy(diag.begin(), diag.end(), sel[fi].begin());
                                     });
        });
        const double ms_sol = time_ms([&] {
            eng.run_injections(snap, freqs, inj,
                               [&sol, &inj](std::size_t fi, std::size_t ri,
                                            std::span<const cplx> x) {
                                   sol[fi][ri] = x[inj[ri].index];
                               });
        });
        double err = 0.0;
        for (std::size_t fi = 0; fi < freqs.size(); ++fi)
            for (std::size_t i = 0; i < nodes.size(); ++i)
                err = std::max(err, std::abs(sel[fi][i] - sol[fi][i])
                                        / std::max(std::abs(sol[fi][i]), 1e-300));

        const double nf = static_cast<double>(freqs.size());
        std::printf("%-8s %8zu  %6zu   %9.3f  %9.3f      %7.1fx     %.2g\n", "rcmesh",
                    snap.size(), nodes.size(), ms_sel / nf, ms_sol / nf, ms_sol / ms_sel, err);
        const long long probes = static_cast<long long>(nodes.size());
        results().push_back({"scaling_alldiag", "rcmesh", snap.size(), "alldiag_selinv", probes,
                             -1, ms_sel / nf, -1, -1, -1, err});
        results().push_back({"scaling_alldiag", "rcmesh", snap.size(), "alldiag_solve", probes,
                             -1, ms_sol / nf, -1, -1, -1, 0.0});
    }
    std::puts("");
}

} // namespace

int main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const char* title24 = "A5b — batched sweep, ms per frequency point (serial, 24 probes, "
                          "40 ppd)";
    const char* title1 = "A5c — single-probe sweep, ms per frequency point (serial, 1 probe, "
                         "40 ppd)";
    if (quick) {
        // CI smoke: one ~2k-unknown point per kind, single timing pass,
        // plus the 8k point the supernodal, pipelined and all-nodes
        // guards read (the scalar column modes are skipped there, and
        // the all-nodes oracle runs only 11 points, so it stays within
        // the job's minutes budget).
        print_fill_table({2048});
        print_phase_breakdown({2048, 8192}, 1);
        print_sweep_ablation(title24, 24, {2048, 8192}, 1);
        print_sweep_ablation(title1, 1, {2048}, 1);
        print_alldiag({2048, 8192});
    } else {
        print_fill_table({512, 2048, 8192});
        print_phase_breakdown({512, 2048, 8192}, 3);
        print_sweep_ablation(title24, 24, {512, 2048, 8192}, 3);
        print_sweep_ablation(title1, 1, {512, 2048, 8192}, 3);
        print_alldiag({512, 2048, 8192});
    }
    emit_json();
    return 0;
}
