// A5 — large-circuit solver scaling on the generated stress corpus
// (`acstab gen`, src/gen/netlist_gen.h).
//
//   * fill table: L+U nonzeros of the shared symbolic factorization under
//     the natural order and approximate minimum degree (the product
//     ordering) on RC ladders and 2-D RC meshes. The mesh is the
//     discriminating workload — the natural order fills like n*k there
//     while minimum degree stays near n*log n. CI asserts the >= 2x
//     reduction from the rcmesh rows of this table.
//   * phase breakdown ("scaling_phase" rows): wall time of each solver
//     phase in isolation — approximate minimum-degree ordering, the full
//     symbolic analysis, one numeric refactorization on the column vs
//     the supernodal path, and one 24-RHS batched back-solve on each
//     path (the column path's batches take the scalar kernel, the
//     supernodal path's the blocked one; their equivalence is recorded as
//     max_rel_err). CI's perf-ratio guard reads the refactor_column /
//     refactor_supernodal pair of this table.
//   * sweep ablation: wall time per frequency point of a serial
//     injection sweep, cold refactor at every frequency, on
//       amdx_column    approximate minimum degree, column numeric path
//                      with the scalar batch solve (the oracle and
//                      speedup baseline)
//       amdx_sn_simd   the one product configuration: the numeric path
//                      the supernode partition picks (blocked on the
//                      meshes, column on the ladders) with the blocked
//                      batch solve
//     with the answers checked against the baseline. The ablation runs
//     in both right-hand-side regimes: 24 probes (the all-nodes stability
//     shape) and 1 probe (the single-node stability / ac / impedance /
//     loopgain shape).
//   * path choice ("scaling_choice" rows): the refactorization path the
//     supernode partition picks (symbolic_lu::blocked_refactor_pays) on
//     the shipped netlists and on generated ladders and meshes, with one
//     refactorization on each path timed in the same run. These rows
//     calibrate the choice; CI checks that the picked path is not the
//     slower one on follower.sp and on the 2k mesh.
//   * all-nodes diagonal ("scaling_alldiag" rows, rcmesh only): the
//     `stability --all` shape, diag(Y^-1) at every node on an 11-point
//     grid, by selected inversion (alldiag_selinv) and by one back-solve
//     per node (alldiag_solve) in the same run. CI guards the pair's
//     agreement (1e-12) and the solve/selinv ratio at 2k.
//
// Prints tables plus one machine-readable ACSTAB_BENCH_JSON line; the
// committed BENCH_9.json at the repo root is an earlier version of this
// line's array (see README "Benchmarks"). --quick restricts sizes/grids
// for the CI smoke job; this binary registers no google-benchmark cases.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>
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
#include "numeric/supernode.h"
#include "spice/ac_analysis.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;

struct row {
    std::string bench;          ///< "scaling_fill" | "_phase" | "_sweep" | "_alldiag" | "_choice"
    std::string kind;           ///< "ladder" | "rcmesh" | a shipped netlist
    std::size_t unknowns = 0;
    std::string mode;           ///< ordering name or sweep configuration
    long long probes = -1;      ///< right-hand sides of the sweep ablation
    long long lu_nnz = -1;      ///< L+U nonzeros of the symbolic pattern
    double ms_per_freq = -1.0;  ///< sweep wall time / frequency count
    long long factors = -1;     ///< numeric factorizations
    double max_rel_err = 0.0;   ///< vs the amdx_column baseline magnitudes
    double sub_rows = -1.0;     ///< choice rows: mean sub-rows per supernode
    std::string picked;         ///< choice rows: the path the partition picks
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
                    "\"mode\":\"%s\",\"probes\":%lld,\"lu_nnz\":%lld,\"ms_per_freq\":%.7f,"
                    "\"factors\":%lld,\"max_rel_err\":%.3g,\"sub_rows\":%.3f,"
                    "\"picked\":\"%s\"}",
                    i == 0 ? "" : ",", r.bench.c_str(), r.kind.c_str(), r.unknowns,
                    r.mode.c_str(), r.probes, r.lu_nnz, r.ms_per_freq, r.factors,
                    r.max_rel_err, r.sub_rows, r.picked.c_str());
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

/// L+U nonzero counts of the symbolic pattern under the natural order and
/// approximate minimum degree, on the complex MNA matrix assembled at the
/// band's middle frequency.
void print_fill_table(const std::vector<std::size_t>& sizes)
{
    std::puts("==============================================================================");
    std::puts("A5a — symbolic fill (L+U nonzeros) vs column pre-ordering, generated corpus");
    std::puts("==============================================================================");
    std::puts("kind     unknowns    A nnz      none  amd-approx  none/amdx");
    std::puts("------------------------------------------------------------------------------");
    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            const engine::linearized_snapshot snap(w.net.ckt, w.op, {});
            numeric::csc_matrix<cplx> work = snap.make_workspace();
            snap.assemble(to_omega(1e6), work);
            const auto fill = [&](numeric::column_ordering o, const char* name) {
                numeric::lu_options lopt;
                lopt.ordering = o;
                const numeric::symbolic_lu<cplx> sym(work, lopt);
                const std::size_t nnz = sym.lower_nnz() + sym.upper_nnz();
                results().push_back({"scaling_fill", kind, snap.size(), name, -1,
                                     static_cast<long long>(nnz)});
                return nnz;
            };
            const std::size_t none = fill(numeric::column_ordering::none, "none");
            const std::size_t amdx = fill(numeric::column_ordering::amd_approx, "amd-approx");
            std::printf("%-8s %8zu %8zu  %8zu    %8zu     %5.2fx\n", kind.c_str(),
                        snap.size(), work.nnz(), none, amdx,
                        static_cast<double>(none) / static_cast<double>(amdx));
        }
    }
    std::puts("");
}

/// Wall time of each solver phase in isolation — approximate minimum
/// degree ordering, full symbolic analysis, one numeric
/// refactorization and one 24-RHS batched back-solve on the column and
/// the supernodal paths — plus the blocked-vs-column solution agreement.
void print_phase_breakdown(const std::vector<std::size_t>& sizes, int repeats)
{
    std::puts("==============================================================================");
    std::puts("A5d — per-phase wall time [ms], column vs supernodal numeric paths");
    std::puts("==============================================================================");
    std::puts("kind     unknowns  order_amdx  symbolic  refac_col  refac_sn  "
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
            col.set_supernodal(false);
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

            std::printf("%-8s %8zu    %8.2f  %8.2f   %8.2f  %8.2f     %8.3f    "
                        "%8.3f  %.2g\n",
                        kind.c_str(), n, ms_amdx, ms_sym, ms_refac_col, ms_refac_sn,
                        ms_solve_col, ms_solve_sn, err);
            const auto phase_row = [&](const char* mode, double ms, long long probes,
                                       double rel_err) {
                results().push_back({"scaling_phase", kind, n, mode, probes, -1, ms, -1,
                                     rel_err});
            };
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
};

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

/// Time per frequency point of the column and supernodal numeric paths,
/// serial, cold refactor at every point of a 40/decade grid.
void print_sweep_ablation(const char* title, std::size_t nprobes,
                          const std::vector<std::size_t>& sizes, int repeats)
{
    std::puts("==============================================================================");
    std::printf("%s\n", title);
    std::puts("      amdx_column = column numeric path, scalar batch solve, the baseline");
    std::puts("==============================================================================");
    std::puts("kind     unknowns  mode            ms/freq   speedup  factors   max err");
    std::puts("------------------------------------------------------------------------------");

    engine::solver_tuning column;
    column.supernodal = false;
    const std::vector<sweep_mode> modes = {
        {"amdx_column", column},
        {"amdx_sn_simd", engine::solver_tuning{}},
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
            double base_ms = 0.0;
            // Above ~4k unknowns a single pass is already seconds long and
            // far above timer noise; best-of-N only matters for the small
            // fast cases.
            const int reps = size > 4000 ? 1 : repeats;
            for (const sweep_mode& m : modes) {
                std::size_t factors = 0;
                std::vector<std::vector<real>> mag;
                double ms = 1e300;
                for (int rep = 0; rep < reps; ++rep) {
                    engine::sweep_stats stats;
                    ms = std::min(ms, time_ms([&] {
                        mag = run_sweep(w, snap, freqs, inj, m.tuning, &stats);
                    }));
                    factors = stats.cold_factors.load();
                }
                const double per_freq = ms / static_cast<double>(freqs.size());
                if (baseline.empty()) {
                    baseline = mag;
                    base_ms = ms;
                }
                const double err = max_rel_err(baseline, mag);
                std::printf("%-8s %8zu  %-14s %8.4f   %6.2fx   %6zu   %.2g\n", kind.c_str(),
                            snap.size(), m.name, per_freq, base_ms / ms, factors, err);
                results().push_back({"scaling_sweep", kind, snap.size(), m.name,
                                     static_cast<long long>(inj.size()), -1, per_freq,
                                     static_cast<long long>(factors), err});
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
                             -1, ms_sel / nf, -1, err});
        results().push_back({"scaling_alldiag", "rcmesh", snap.size(), "alldiag_solve", probes,
                             -1, ms_sol / nf, -1, 0.0});
    }
    std::puts("");
}

/// Y(jw) at 1 MHz of a shipped netlist or a generated circuit, at its
/// operating point.
numeric::csc_matrix<cplx> choice_matrix(spice::circuit& c)
{
    c.finalize();
    const std::vector<real> op = spice::dc_operating_point(c).solution;
    engine::snapshot_options sopt;
    sopt.gshunt = 1e-9;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op, sopt);
    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e6), work);
    return work;
}

/// Which refactorization path the supernode partition picks
/// (symbolic_lu::blocked_refactor_pays), against both paths timed in the
/// same run: one refactorization of Y(jw), best of `repeats` passes of
/// enough back-to-back refactorizations to sit far above timer
/// resolution on a 6-unknown circuit. These rows calibrate
/// blocked_refactor_min_sub_rows, and CI checks that the picked path is
/// never the slower one on follower.sp and on the 2k mesh.
void print_choice_table(std::vector<std::pair<std::string, spice::parsed_netlist>> cases,
                        int repeats)
{
    std::puts("==============================================================================");
    std::puts("A5f — refactorization path the supernode partition picks, us per refactor");
    std::puts("==============================================================================");
    std::puts("circuit             unknowns  sub-rows  picked       column   supernodal  col/sn");
    std::puts("------------------------------------------------------------------------------");
    for (auto& [kind, net] : cases) {
        const numeric::csc_matrix<cplx> work = choice_matrix(net.ckt);
        const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work);
        const numeric::supernode_partition& sn = sym->supernodes();
        const double sub_rows
            = static_cast<double>(sn.rows.size()) / static_cast<double>(sn.count());
        const char* picked = sym->blocked_refactor_pays() ? "supernodal" : "column";

        numeric::numeric_lu<cplx> col(sym);
        col.set_supernodal(false);
        numeric::numeric_lu<cplx> blk(sym);
        blk.set_supernodal(true);
        col.refactor(work);
        blk.refactor(work);
        const std::size_t nnz = sym->lower_nnz() + sym->upper_nnz();
        const int loops = static_cast<int>(std::max<std::size_t>(1, 400000 / nnz));
        double ms_col = 1e300;
        double ms_sn = 1e300;
        for (int rep = 0; rep < repeats; ++rep) {
            ms_col = std::min(ms_col, time_ms([&] {
                for (int i = 0; i < loops; ++i)
                    col.refactor(work);
            }) / loops);
            ms_sn = std::min(ms_sn, time_ms([&] {
                for (int i = 0; i < loops; ++i)
                    blk.refactor(work);
            }) / loops);
        }
        std::printf("%-18s %8zu  %8.2f  %-10s %9.3f  %9.3f    %5.2f\n", kind.c_str(),
                    sym->size(), sub_rows, picked, 1e3 * ms_col, 1e3 * ms_sn, ms_col / ms_sn);
        for (const auto& [mode, ms] : {std::pair{"refactor_column", ms_col},
                                       std::pair{"refactor_supernodal", ms_sn}}) {
            row r{"scaling_choice", kind, sym->size(), mode, -1,
                  static_cast<long long>(nnz), ms, loops, 0.0};
            r.sub_rows = sub_rows;
            r.picked = picked;
            results().push_back(r);
        }
    }
    std::puts("");
}

/// The choice table's circuits: the shipped netlists, then generated
/// ladders and meshes of the given sizes.
std::vector<std::pair<std::string, spice::parsed_netlist>>
choice_cases(const std::vector<const char*>& shipped, const std::vector<std::size_t>& sizes)
{
    std::vector<std::pair<std::string, spice::parsed_netlist>> cases;
    for (const char* name : shipped)
        cases.emplace_back(name, spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR)
                                                           + "/" + name));
    for (const std::string kind : {"ladder", "rcmesh"})
        for (const std::size_t size : sizes) {
            gen::gen_options gopt;
            gopt.size = size;
            cases.emplace_back(kind, spice::parse_netlist(gen::generate_netlist(kind, gopt)));
        }
    return cases;
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
        // plus the 8k point the supernodal and all-nodes guards read (the
        // all-nodes oracle runs only 11 points, so it stays within the
        // job's minutes budget).
        print_fill_table({2048});
        print_choice_table(choice_cases({"follower.sp"}, {2048}), 5);
        print_phase_breakdown({2048, 8192}, 1);
        print_sweep_ablation(title24, 24, {2048, 8192}, 1);
        print_sweep_ablation(title1, 1, {2048}, 1);
        print_alldiag({2048, 8192});
    } else {
        print_fill_table({512, 2048, 8192});
        print_choice_table(
            choice_cases({"rlc_tank.sp", "two_pole_loop.sp", "three_pole_loop.sp", "follower.sp"},
                         {64, 144, 256, 400, 1024, 2048, 8192}),
            5);
        print_phase_breakdown({512, 2048, 8192}, 3);
        print_sweep_ablation(title24, 24, {512, 2048, 8192}, 3);
        print_sweep_ablation(title1, 1, {512, 2048, 8192}, 3);
        print_alldiag({512, 2048, 8192});
    }
    emit_json();
    return 0;
}
