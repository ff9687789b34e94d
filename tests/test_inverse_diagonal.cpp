// Selected inversion: numeric_lu::inverse_diagonal and the engine's
// run_inverse_diagonal must reproduce the batched unit-injection solves
// they replace on `stability --all` — per entry to 1e-12 on shipped and
// generated netlists in both numeric modes, through the fresh-factor
// fallback, and for unknowns whose diagonal lies outside the L + U
// pattern — while the all-nodes reports stay byte-identical across
// thread counts and to the batched path, and the steady-state frequency
// loop (selected inversion and the sweep driver's fixed policy) stays
// allocation-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "engine/frequency_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "gen/netlist_gen.h"
#include "numeric/interpolation.h"
#include "numeric/sparse_factor.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

// Global allocation counter for the steady-state audit: every operator
// new bumps one relaxed atomic.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
} // namespace

void* operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size)
{
    return operator new(size);
}

void* operator new(std::size_t size, std::align_val_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
        throw std::bad_alloc{};
    return p;
}

void* operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

// The nothrow forms (std::stable_sort's temporary buffer) must come from
// the same malloc as the deletes below. libstdc++'s defaults forward to
// the replaced operator new, but AddressSanitizer substitutes its own.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return operator new(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace acstab;

const char* const shipped[] = {"follower.sp", "rlc_tank.sp", "three_pole_loop.sp",
                               "two_pole_loop.sp"};

spice::parsed_netlist load_shipped(const char* name)
{
    spice::parsed_netlist net
        = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/" + name);
    net.ckt.finalize();
    return net;
}

spice::parsed_netlist load_generated(const char* kind, std::size_t size)
{
    gen::gen_options gopt;
    gopt.size = size;
    spice::parsed_netlist net = spice::parse_netlist(gen::generate_netlist(kind, gopt));
    net.ckt.finalize();
    return net;
}

/// The stability analyzer's injection snapshot (every AC stimulus zeroed).
engine::linearized_snapshot injection_snapshot(spice::circuit& c, real gshunt = 1e-9)
{
    const std::vector<real> op = spice::dc_operating_point(c).solution;
    engine::snapshot_options sopt;
    sopt.gshunt = gshunt;
    sopt.zero_all_sources = true;
    return engine::linearized_snapshot(c, op, sopt);
}

real rel_err(cplx got, cplx want)
{
    const real scale = std::max(std::abs(got), std::abs(want));
    return scale > 0.0 ? std::abs(got - want) / scale : 0.0;
}

/// Columns of A^-1 the hard way: solve_batch of unit injections, one
/// per listed unknown, against the same factors. cols[i] = A^-1 e_k for
/// k = unknowns[i].
std::vector<std::vector<cplx>> inverse_columns(numeric::numeric_lu<cplx>& num,
                                               const std::vector<std::size_t>& unknowns)
{
    const std::size_t n = num.size();
    constexpr std::size_t block = 32;
    std::vector<std::vector<cplx>> rhs(block, std::vector<cplx>(n, cplx{}));
    std::vector<const cplx*> ptrs(block);
    std::vector<cplx> x(block * n);
    std::vector<std::vector<cplx>> cols(unknowns.size());
    for (std::size_t r0 = 0; r0 < unknowns.size(); r0 += block) {
        const std::size_t bn = std::min(block, unknowns.size() - r0);
        for (std::size_t j = 0; j < bn; ++j) {
            std::fill(rhs[j].begin(), rhs[j].end(), cplx{});
            rhs[j][unknowns[r0 + j]] = cplx{1.0, 0.0};
            ptrs[j] = rhs[j].data();
        }
        num.solve_batch(ptrs.data(), bn, x.data());
        for (std::size_t j = 0; j < bn; ++j)
            cols[r0 + j].assign(x.begin() + static_cast<std::ptrdiff_t>(j * n),
                                x.begin() + static_cast<std::ptrdiff_t>((j + 1) * n));
    }
    return cols;
}

/// How the entries are compared.
enum class bound {
    /// |got - want| <= 1e-12 |want|.
    relative,
    /// |got - want| <= 1e-12 (|Z| |A| |Z|)(k, k), Z = A^-1: the same
    /// relative bound scaled by the entry's componentwise condition.
    /// Where feedback makes Z(k, k) the small difference of large terms
    /// (three_pole_loop's s1 near 1 kHz: |Z| ~ 1 ohm against 10 kohm
    /// stage resistors) the unit solves themselves are only good to
    /// ~2e-12 there against an extended-precision reference, and no
    /// backward-stable method does better than this bound. For a
    /// well-conditioned entry it equals the relative bound. Needs the
    /// full inverse, so only for small circuits.
    conditioned,
};

/// Every unknown's inverse-diagonal entry from selected inversion vs the
/// unit solves, in the column or the supernodal numeric mode, over a
/// frequency grid (refactored against a symbolic object seeded at
/// 100 kHz, as the engine reuses its pivot order across a sweep).
void expect_matches_solves(spice::circuit& c, bool supernodal, const std::vector<real>& freqs,
                           bound kind)
{
    const engine::linearized_snapshot snap = injection_snapshot(c);
    const std::size_t n = snap.size();
    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e5), work);
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work);
    numeric::numeric_lu<cplx> num(sym);
    num.set_batch_kernel(numeric::batch_kernel::simd);
    num.set_supernodal(supernodal);

    std::vector<std::size_t> all(n);
    for (std::size_t k = 0; k < n; ++k)
        all[k] = k;
    std::vector<cplx> diag(n);
    for (const real f : freqs) {
        snap.assemble(to_omega(f), work);
        num.refactor(work);
        num.inverse_diagonal(all, diag);
        const std::vector<std::vector<cplx>> z = inverse_columns(num, all);
        std::vector<real> scale(n);
        for (std::size_t k = 0; k < n; ++k)
            scale[k] = std::abs(z[k][k]);
        if (kind == bound::conditioned) {
            const numeric::dense_matrix<cplx> a = work.to_dense();
            for (std::size_t k = 0; k < n; ++k) {
                real s = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        s += std::abs(z[i][k]) * std::abs(a(i, j)) * std::abs(z[k][j]);
                scale[k] = s;
            }
        }
        real worst = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            if (scale[k] > 0.0)
                worst = std::max(worst, std::abs(diag[k] - z[k][k]) / scale[k]);
        EXPECT_LE(worst, 1e-12) << "n=" << n << " f=" << f << " supernodal=" << supernodal;
    }
}

/// Whether A(k, k)'s pivot-space position (pinv k, qinv k) is a stored
/// entry of L + U, i.e. whether selected inversion covers unknown k.
bool diagonal_in_pattern(const numeric::symbolic_lu<cplx>& sym, std::size_t k)
{
    const std::size_t r = sym.pinv()[k];
    const std::size_t c = static_cast<std::size_t>(
        std::find(sym.q().begin(), sym.q().end(), k) - sym.q().begin());
    for (std::size_t p = sym.ucol_ptr()[c]; p < sym.ucol_ptr()[c + 1]; ++p)
        if (sym.urow()[p] == r)
            return true;
    for (std::size_t p = sym.lcol_ptr()[c]; p < sym.lcol_ptr()[c + 1]; ++p)
        if (sym.lrow()[p] == r)
            return true;
    return false;
}

TEST(inverse_diagonal, matches_unit_solves_on_shipped_netlists)
{
    for (const char* name : shipped) {
        SCOPED_TRACE(name);
        spice::parsed_netlist net = load_shipped(name);
        // The analyzer's default grid: 1 kHz .. 1 GHz, 40 points per decade.
        const std::vector<real> freqs = core::sweep_spec{}.frequencies();
        expect_matches_solves(net.ckt, false, freqs, bound::conditioned);
        expect_matches_solves(net.ckt, true, freqs, bound::conditioned);
    }
}

TEST(inverse_diagonal, matches_unit_solves_on_generated_2k)
{
    for (const char* kind : {"rcmesh", "ladder"}) {
        SCOPED_TRACE(kind);
        spice::parsed_netlist net = load_generated(kind, 2000);
        const std::vector<real> freqs = numeric::log_grid(1e3, 1e9, 1);
        expect_matches_solves(net.ckt, false, freqs, bound::relative);
        expect_matches_solves(net.ckt, true, freqs, bound::relative);
    }
}

TEST(inverse_diagonal, zero_diagonal_outside_pattern_falls_back_to_a_solve)
{
    // A = [[0, 1], [1, 1]]: column 0 pivots on row 1, so (A^-1)(0, 0)
    // sits at pivot position (1, 0), which L + U does not store.
    const numeric::csc_matrix<cplx> a(2, 2, {0, 1, 3}, {1, 0, 1},
                                      {cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0}});
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(a);
    ASSERT_FALSE(diagonal_in_pattern(*sym, 0));
    ASSERT_TRUE(diagonal_in_pattern(*sym, 1));
    numeric::numeric_lu<cplx> num(sym);
    num.refactor(a);
    // A^-1 = [[-1, 1], [1, 0]].
    const std::vector<std::size_t> unknowns{1, 0, 1};
    std::vector<cplx> diag(unknowns.size());
    num.inverse_diagonal(unknowns, diag);
    EXPECT_NEAR(std::abs(diag[0]), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(diag[1] - cplx{-1.0, 0.0}), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(diag[2]), 0.0, 1e-15);
}

// --- engine ------------------------------------------------------------------

const std::vector<real>& engine_grid()
{
    static const std::vector<real> freqs = numeric::log_grid(1e3, 1e9, 3);
    return freqs;
}

/// run_inverse_diagonal over every node: diag[fi][k].
std::vector<std::vector<cplx>> engine_diagonal(const engine::linearized_snapshot& snap,
                                               std::size_t nodes,
                                               const engine::sweep_engine_options& eopt,
                                               const std::vector<real>& freqs = engine_grid())
{
    std::vector<std::size_t> unknowns(nodes);
    for (std::size_t k = 0; k < nodes; ++k)
        unknowns[k] = k;
    std::vector<std::vector<cplx>> sel(freqs.size(), std::vector<cplx>(nodes));
    engine::sweep_engine(eopt).run_inverse_diagonal(
        snap, freqs, unknowns, [&sel](std::size_t fi, std::span<const cplx> diag) {
            std::copy(diag.begin(), diag.end(), sel[fi].begin());
        });
    return sel;
}

/// run_inverse_diagonal vs run_injections under the same engine options.
real engine_max_rel_err(spice::circuit& c, const engine::sweep_engine_options& eopt,
                        real gshunt = 1e-9)
{
    const engine::linearized_snapshot snap = injection_snapshot(c, gshunt);
    const std::size_t nodes = c.node_count();
    const std::vector<std::vector<cplx>> sel = engine_diagonal(snap, nodes, eopt);
    std::vector<engine::sweep_engine::injection> inj;
    for (std::size_t k = 0; k < nodes; ++k)
        inj.push_back({k, cplx{1.0, 0.0}});
    std::vector<std::vector<cplx>> sol = sel;
    engine::sweep_engine(eopt).run_injections(
        snap, engine_grid(), inj,
        [&sol, &inj](std::size_t fi, std::size_t ri, std::span<const cplx> x) {
            sol[fi][ri] = x[inj[ri].index];
        });
    real worst = 0.0;
    for (std::size_t fi = 0; fi < sel.size(); ++fi)
        for (std::size_t k = 0; k < nodes; ++k)
            worst = std::max(worst, rel_err(sel[fi][k], sol[fi][k]));
    return worst;
}

TEST(inverse_diagonal, engine_matches_injections_through_fresh_factor)
{
    // A zero growth limit probes every frequency and a zero guard
    // tolerance fails every probe of the shared pivot order, so each
    // point re-pivots through fresh_factor and the inversion has to
    // rebuild its index on the new symbolic object.
    engine::sweep_engine_options eopt;
    eopt.refactor_growth_limit = 0.0;
    eopt.refactor_guard_tol = 0.0;
    spice::parsed_netlist mesh = load_generated("rcmesh", 400);
    spice::parsed_netlist follower = load_shipped("follower.sp");
    for (const std::size_t threads : {1, 3}) {
        eopt.threads = threads;
        EXPECT_LE(engine_max_rel_err(mesh.ckt, eopt), 1e-12) << threads;
        EXPECT_LE(engine_max_rel_err(follower.ckt, eopt), 1e-12) << threads;
    }
}

TEST(inverse_diagonal, engine_dense_reference_solver_agrees)
{
    // The dense reference solver has no sparse factors to invert; it
    // answers with unit solves of its own LU.
    spice::parsed_netlist follower = load_shipped("follower.sp");
    const engine::linearized_snapshot snap = injection_snapshot(follower.ckt);
    const std::size_t nodes = follower.ckt.node_count();
    engine::sweep_engine_options eopt;
    const auto sparse = engine_diagonal(snap, nodes, eopt);
    eopt.solver = spice::solver_kind::dense;
    const auto dense = engine_diagonal(snap, nodes, eopt);
    real worst = 0.0;
    for (std::size_t fi = 0; fi < sparse.size(); ++fi)
        for (std::size_t k = 0; k < nodes; ++k)
            worst = std::max(worst, rel_err(dense[fi][k], sparse[fi][k]));
    EXPECT_LE(worst, 1e-12);
}

constexpr const char* inductor_node_netlist = R"(* node b has no stamp on its diagonal
R1 a 0 1k
C1 a 0 1n
L1 a b 10u
L2 b 0 10u
R2 a c 100
C2 c 0 2n
.end
)";

TEST(inverse_diagonal, node_without_diagonal_stamp_is_solved)
{
    // gshunt = 0: node b touches only inductor branch currents, so A(b, b)
    // is structurally zero and (with this ordering) outside L + U.
    spice::parsed_netlist net = spice::parse_netlist(inductor_node_netlist);
    net.ckt.finalize();
    const std::size_t b = static_cast<std::size_t>(*net.ckt.find_node("b"));
    const engine::linearized_snapshot snap = injection_snapshot(net.ckt, 0.0);
    const auto sym = snap.shared_symbolic(to_omega(1e6), numeric::column_ordering::amd_approx);
    ASSERT_FALSE(diagonal_in_pattern(*sym, b));

    engine::sweep_engine_options eopt;
    EXPECT_LE(engine_max_rel_err(net.ckt, eopt, 0.0), 1e-12);

    core::stability_options opt;
    opt.gshunt = 0.0;
    core::stability_analyzer an(net.ckt, opt);
    const core::stability_report rep = an.analyze_all_nodes();
    const auto it = std::find_if(rep.nodes.begin(), rep.nodes.end(),
                                 [](const core::node_stability& ns) { return ns.node == "b"; });
    ASSERT_NE(it, rep.nodes.end());
    const core::node_stability single = an.analyze_node("b");
    ASSERT_EQ(it->plot.magnitude.size(), single.plot.magnitude.size());
    for (std::size_t i = 0; i < single.plot.magnitude.size(); ++i)
        EXPECT_LE(std::abs(it->plot.magnitude[i] - single.plot.magnitude[i]),
                  1e-12 * single.plot.magnitude[i]);
}

// --- all-nodes reports -------------------------------------------------------

std::string report_text(const core::stability_report& rep)
{
    return core::format_all_nodes_report(rep) + core::format_csv(rep);
}

TEST(inverse_diagonal, all_nodes_report_identical_for_1_and_4_threads)
{
    std::vector<spice::parsed_netlist> nets;
    for (const char* name : shipped)
        nets.push_back(load_shipped(name));
    nets.push_back(load_generated("rcmesh", 400));
    for (spice::parsed_netlist& net : nets) {
        std::string text[2];
        for (const std::size_t threads : {1, 4}) {
            core::stability_options opt;
            opt.threads = threads;
            core::stability_analyzer an(net.ckt, opt);
            text[threads == 4] = report_text(an.analyze_all_nodes());
        }
        EXPECT_EQ(text[0], text[1]);
    }
}

TEST(inverse_diagonal, all_nodes_verdicts_match_batched_solves)
{
    // The batched path the fixed grid used before selected inversion: one
    // unit-current injection per node through run_injections, with the
    // analyzer's own snapshot and engine options.
    for (const char* name : shipped) {
        SCOPED_TRACE(name);
        spice::parsed_netlist net = load_shipped(name);
        const core::stability_options opt;
        core::stability_analyzer an(net.ckt, opt);
        const core::stability_report rep = an.analyze_all_nodes();

        const std::vector<real> freqs = opt.sweep.frequencies();
        const std::vector<bool> forced = net.ckt.source_forced_nodes();
        engine::snapshot_options sopt;
        sopt.gmin = opt.gmin;
        sopt.gshunt = opt.gshunt;
        sopt.zero_all_sources = true;
        const engine::linearized_snapshot snap(net.ckt, an.operating_point(), sopt);
        std::vector<engine::sweep_engine::injection> inj;
        for (std::size_t k = 0; k < net.ckt.node_count(); ++k)
            if (!forced[k])
                inj.push_back({k, cplx{1.0, 0.0}});
        std::vector<std::vector<real>> mag(net.ckt.node_count(),
                                           std::vector<real>(freqs.size(), 0.0));
        engine::sweep_engine_options eopt;
        eopt.threads = opt.threads;
        eopt.solver = opt.solver;
        eopt.tuning = opt.tuning;
        engine::sweep_engine(eopt).run_injections(
            snap, freqs, inj,
            [&mag, &inj](std::size_t fi, std::size_t ri, std::span<const cplx> x) {
                mag[inj[ri].index][fi] = std::abs(x[inj[ri].index]);
            });
        const core::stability_report batched = an.build_report(freqs, mag, forced);

        EXPECT_EQ(report_text(rep), report_text(batched));
    }
}

// --- allocation audit --------------------------------------------------------

TEST(inverse_diagonal, steady_state_frequency_loop_does_not_allocate)
{
    // Two serial sweeps that differ only in grid density: set-up (the
    // chunk solver, the lazily built index, the worker buffers, the
    // sweep driver's per-channel output vectors) is the same in both, so
    // any difference is per-frequency allocation. Audited for selected
    // inversion and for the frequency-sweep driver's fixed policy.
    spice::parsed_netlist net = load_generated("rcmesh", 400);
    const engine::linearized_snapshot snap = injection_snapshot(net.ckt);
    std::vector<std::size_t> nodes;
    for (std::size_t k = 0; k < net.ckt.node_count(); ++k)
        nodes.push_back(k);
    real sink = 0.0;
    const engine::sweep_engine::diag_sink out = [&sink](std::size_t,
                                                        std::span<const cplx> diag) {
        for (const cplx& d : diag)
            sink += std::abs(d);
    };
    const engine::sweep_engine eng{};
    const std::vector<engine::sweep_engine::injection> injections{{nodes.back(), cplx{1.0, 0.0}}};
    const auto sweeps = {
        std::function<void(const std::vector<real>&)>([&](const std::vector<real>& freqs) {
            eng.run_inverse_diagonal(snap, freqs, nodes, out);
        }),
        std::function<void(const std::vector<real>&)>([&](const std::vector<real>& freqs) {
            const engine::sweep_result res = engine::frequency_sweep(
                snap, freqs, injections, {{0, nodes.back()}}, engine::sweep_policy{});
            sink += std::abs(res.values[0].back());
        }),
    };
    for (const auto& sweep : sweeps) {
        const auto allocs = [&](std::size_t ppd) {
            // Pre-size the grid outside the count; the first run warms
            // the snapshot's cached symbolic object for this grid.
            const std::vector<real> freqs = numeric::log_grid(1e3, 1e9, ppd);
            sweep(freqs);
            const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
            sweep(freqs);
            return g_alloc_count.load(std::memory_order_relaxed) - before;
        };
        const std::size_t small = allocs(5);
        const std::size_t large = allocs(20);
        EXPECT_EQ(small, large);
    }
    EXPECT_GT(sink, 0.0);
}

} // namespace
