#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "checks.h"
#include "common/error.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "core/second_order.h"
#include "core/tran_stability.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/json.h"
#include "farm/orchestrator.h"
#include "farm/shard_store.h"
#include "gen.h"
#include "kernel_counts.h"
#include "numeric/amd_order.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace bench {

namespace {

    namespace fs = std::filesystem;
    using namespace acstab;
    using clock_type = std::chrono::steady_clock;

    double since(clock_type::time_point t0)
    {
        return std::chrono::duration<double>(clock_type::now() - t0).count();
    }

    double median(std::vector<double> v)
    {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        const std::size_t m = v.size() / 2;
        return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
    }

    /// Nearest-rank percentile, q in (0, 1].
    double percentile(std::vector<double> v, double q)
    {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
        return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
    }

    /// Sample count and range behind a reported median, on stderr.
    void log_samples(const char* name, const std::vector<double>& v)
    {
        if (v.empty())
            return;
        std::fprintf(stderr, "  %s: %zu samples, min %.6g, median %.6g, max %.6g\n", name,
                     v.size(), *std::min_element(v.begin(), v.end()), median(v),
                     *std::max_element(v.begin(), v.end()));
    }

    void write_file(const std::string& path, const std::string& bytes)
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

    // ------------------------------------------------------------------
    // Tracing: spans live in memory and are written out when the run ends.

    class tracer {
    public:
        struct span {
            std::string name;
            double start_s = 0.0;
            double end_s = 0.0;
            int parent = -1;
            int iteration = -1;
        };

        int begin(std::string name, int parent, int iteration)
        {
            spans_.push_back({std::move(name), since(origin_), 0.0, parent, iteration});
            return static_cast<int>(spans_.size()) - 1;
        }
        void end(int id) { spans_[static_cast<std::size_t>(id)].end_s = since(origin_); }

        /// Time fn() as a span; returns fn's result.
        template <class F>
        auto timed(std::string name, int parent, int iteration, F&& fn)
        {
            const int id = begin(std::move(name), parent, iteration);
            if constexpr (std::is_void_v<decltype(fn())>) {
                fn();
                end(id);
            } else {
                auto r = fn();
                end(id);
                return r;
            }
        }

        [[nodiscard]] double duration_ms(int id) const
        {
            const span& s = spans_[static_cast<std::size_t>(id)];
            return 1e3 * (s.end_s - s.start_s);
        }

        /// Summed duration [ms] of the named spans under `parent`.
        [[nodiscard]] double total_ms(const std::string& name, int parent) const
        {
            double ms = 0.0;
            for (const span& s : spans_)
                if (s.parent == parent && s.name == name)
                    ms += 1e3 * (s.end_s - s.start_s);
            return ms;
        }

        /// Summed duration [ms] of every direct child of `parent`.
        [[nodiscard]] double children_ms(int parent) const
        {
            double ms = 0.0;
            for (const span& s : spans_)
                if (s.parent == parent)
                    ms += 1e3 * (s.end_s - s.start_s);
            return ms;
        }

        void write_json(const std::string& path) const
        {
            farm::json_value arr = farm::json_value::array();
            for (std::size_t i = 0; i < spans_.size(); ++i) {
                const span& s = spans_[i];
                farm::json_value o = farm::json_value::object();
                o.set("id", farm::json_value::number(i));
                o.set("name", farm::json_value::str(s.name));
                o.set("start_s", farm::json_value::number(s.start_s));
                o.set("end_s", farm::json_value::number(s.end_s));
                o.set("parent", farm::json_value::number(static_cast<real>(s.parent)));
                o.set("iteration", farm::json_value::number(static_cast<real>(s.iteration)));
                arr.push_back(std::move(o));
            }
            write_file(path, arr.dump() + "\n");
        }

    private:
        clock_type::time_point origin_ = clock_type::now();
        std::vector<span> spans_;
    };

    // ------------------------------------------------------------------
    // Run bookkeeping shared by every workload.

    struct bench_run {
        const run_options& opt;
        std::string dir; ///< this run's private scratch directory
        run_result result;
        tracer trace;

        /// Count one checked operation (`weight` of them for a farm
        /// campaign, whose operations are its points).
        void record(const std::string& error, std::size_t weight = 1)
        {
            result.attempted += weight;
            if (!error.empty()) {
                result.failed += weight;
                std::fprintf(stderr, "bench_e2e: %s: check failed: %s\n", opt.workload.c_str(),
                             error.c_str());
            }
        }

        void set(const std::string& name, double value) { result.metrics[name] = value; }
    };

    /// Call once(i) until one more median-length iteration would overrun
    /// `seconds`, and at least min_iters times. A throwing iteration counts
    /// `weight` failed operations; its duration still counts toward the
    /// budget.
    template <class F>
    void run_for(bench_run& s, double seconds, std::size_t min_iters, F&& once,
                 std::size_t weight = 1)
    {
        const auto t0 = clock_type::now();
        std::vector<double> durations;
        for (std::size_t i = 0;; ++i) {
            if (i >= min_iters && since(t0) + median(durations) > seconds)
                break;
            const auto ti = clock_type::now();
            try {
                once(i);
            } catch (const std::exception& e) {
                s.record(std::string("iteration threw: ") + e.what(), weight);
            }
            durations.push_back(since(ti));
        }
    }

    // ------------------------------------------------------------------
    // Peak resident memory of the measured part of the run.

    /// Drop the oracle's memory from the high-water mark: hand freed heap
    /// back to the kernel, then reset VmHWM (Linux clear_refs "5").
    bool reset_peak_rss()
    {
        malloc_trim(0);
        std::ofstream f("/proc/self/clear_refs");
        f << "5";
        f.flush();
        return static_cast<bool>(f);
    }

    double self_peak_kb(bool reset_ok)
    {
        if (reset_ok) {
            std::ifstream f("/proc/self/status");
            std::string line;
            while (std::getline(f, line))
                if (line.rfind("VmHWM:", 0) == 0)
                    return std::strtod(line.c_str() + 6, nullptr);
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return static_cast<double>(ru.ru_maxrss);
    }

    /// Larger of this process and its largest reaped child (farm worker).
    double peak_rss_mb(bool reset_ok)
    {
        rusage ru{};
        getrusage(RUSAGE_CHILDREN, &ru);
        return std::max(self_peak_kb(reset_ok), static_cast<double>(ru.ru_maxrss)) / 1024.0;
    }

    // ------------------------------------------------------------------
    // Untraced measurement shared by the sweeps and the transient.

    struct untraced_samples {
        std::vector<double> wall;  ///< per checked iteration
        std::vector<double> setup; ///< per set-up pass
    };

    /// Rounds of one set-up pass (timed on its own) followed by one checked
    /// iteration, so set-up samples spread over the whole run like the
    /// iterations do. A traced run spends 40% of its budget here, for the
    /// untraced wall time trace.overhead divides by.
    template <class Setup, class Iteration>
    untraced_samples measure_untraced(bench_run& s, Setup&& setup_once, Iteration&& iteration)
    {
        untraced_samples u;
        const double budget = s.opt.trace ? 0.4 * s.opt.seconds : s.opt.seconds;
        run_for(s, budget, s.opt.trace ? 1 : 5, [&](std::size_t) {
            u.setup.push_back(setup_once());
            const auto t0 = clock_type::now();
            const std::string err = iteration();
            u.wall.push_back(since(t0));
            s.record(err);
        });
        return u;
    }

    /// The end-to-end metrics of a run: medians over its iterations, with
    /// throughput taken over each iteration's time after set-up.
    void set_end_to_end(bench_run& s, const untraced_samples& u, double points, bool rss_ok)
    {
        const double setup = median(u.setup);
        std::vector<double> rates;
        for (const double w : u.wall)
            rates.push_back(points / (w - setup));
        s.set("wall_s", median(u.wall));
        s.set("setup_s", setup);
        log_samples("wall_s", u.wall);
        log_samples("setup_s", u.setup);
        s.set("points_per_s", median(rates));
        s.set("peak_rss_mb", peak_rss_mb(rss_ok));
    }

    // ------------------------------------------------------------------
    // Frequency-sweep workloads: mesh-node and mesh-all.

    enum class sweep_mode { node, all };

    core::stability_options sweep_options()
    {
        // The CLI defaults: 1 kHz .. 1 GHz at 50 points per decade (301
        // points), serial.
        core::stability_options sopt;
        sopt.sweep.fstart = 1e3;
        sopt.sweep.fstop = 1e9;
        sopt.sweep.points_per_decade = 50;
        sopt.threads = 1;
        return sopt;
    }

    spice::dc_options analyzer_dc(const core::stability_options& sopt)
    {
        spice::dc_options dc = sopt.dc;
        dc.gmin = sopt.gmin;
        dc.solver = sopt.solver;
        return dc;
    }

    engine::snapshot_options injection_snapshot(const core::stability_options& sopt)
    {
        engine::snapshot_options o;
        o.gmin = sopt.gmin;
        o.gshunt = sopt.gshunt;
        o.zero_all_sources = true;
        return o;
    }

    engine::sweep_engine_options engine_options(const core::stability_options& sopt)
    {
        engine::sweep_engine_options eo;
        eo.threads = sopt.threads;
        eo.solver = sopt.solver;
        eo.tuning = sopt.tuning;
        return eo;
    }

    /// stability_analyzer's per-node post-processing through its public
    /// pieces: the stability plot and the second-order verdict.
    core::node_stability node_result(std::string name, const std::vector<real>& freqs,
                                     const std::vector<real>& magnitude,
                                     const core::plot_options& po)
    {
        core::node_stability ns;
        ns.node = std::move(name);
        ns.plot = core::compute_stability_plot(freqs, magnitude, po);
        if (const core::stability_peak* peak = ns.plot.dominant_pole(); peak != nullptr) {
            ns.has_peak = true;
            ns.dominant = *peak;
            if (peak->value < 0.0) {
                ns.zeta = core::zeta_from_performance_index(peak->value);
                ns.phase_margin_est_deg = std::min(core::phase_margin_rule_deg(ns.zeta), 90.0);
                ns.overshoot_est_pct = core::overshoot_percent(ns.zeta);
                ns.is_underdamped = peak->flag == core::peak_flag::normal && ns.zeta < 1.0;
            }
        }
        return ns;
    }

    struct sweep_case {
        sweep_mode mode;
        mesh_input input;
        std::string path;
        core::stability_options sopt = sweep_options();
        std::vector<real> freqs = sopt.sweep.frequencies();
        /// mesh-node: grid indices the column-path oracle solved.
        std::vector<std::size_t> spot{};
        magnitude_oracle oracle{};

        [[nodiscard]] const tank& probe() const { return input.tanks[input.probe]; }
        [[nodiscard]] real omega_mid() const { return to_omega(freqs[freqs.size() / 2]); }
    };

    /// mesh-node oracle: the column (non-supernodal) numeric path at every
    /// 10th grid point, with the symbolic analysis seeded at the full
    /// grid's middle frequency like the product sweep.
    void build_node_oracle(sweep_case& sc)
    {
        spice::parsed_netlist net = spice::parse_netlist_file(sc.path);
        core::stability_analyzer an(net.ckt, sc.sopt);
        const engine::linearized_snapshot snap(net.ckt, an.operating_point(),
                                               injection_snapshot(sc.sopt));
        const std::size_t k = static_cast<std::size_t>(*net.ckt.find_node(sc.probe().node));
        std::vector<real> spot_freqs;
        for (std::size_t i = 0; i < sc.freqs.size(); i += 10) {
            sc.spot.push_back(i);
            spot_freqs.push_back(sc.freqs[i]);
        }
        engine::sweep_engine_options eo = engine_options(sc.sopt);
        eo.tuning.supernodal = false;
        eo.symbolic_omega_ref = sc.omega_mid();
        std::vector<real> mag(spot_freqs.size());
        engine::sweep_engine(eo).run_injections(
            snap, spot_freqs, {{k, cplx{1.0, 0.0}}},
            [&mag, k](std::size_t fi, std::size_t, std::span<const cplx> sol) {
                mag[fi] = std::abs(sol[k]);
            });
        sc.oracle = {{sc.probe().node, std::move(mag)}};
    }

    /// mesh-all oracle: single-node analyze_node runs (one RHS per solve,
    /// so a different batched-solve shape) at every tank and two seeded
    /// mesh nodes.
    void build_all_oracle(sweep_case& sc)
    {
        std::vector<std::string> nodes;
        for (const tank& t : sc.input.tanks)
            nodes.push_back(t.node);
        nodes.insert(nodes.end(), sc.input.spot_nodes.begin(), sc.input.spot_nodes.end());
        spice::parsed_netlist net = spice::parse_netlist_file(sc.path);
        core::stability_analyzer an(net.ckt, sc.sopt);
        for (const std::string& name : nodes)
            sc.oracle.emplace_back(name, an.analyze_node(name).plot.magnitude);
    }

    std::string check_node(const sweep_case& sc, const core::node_stability& ns,
                           const std::string& summary)
    {
        if (std::string err = check_planted_loop(ns, sc.probe()); !err.empty())
            return err;
        if (ns.plot.magnitude.size() != sc.freqs.size())
            return "stability plot has " + std::to_string(ns.plot.magnitude.size())
                + " samples, grid has " + std::to_string(sc.freqs.size());
        std::vector<real> spot;
        for (const std::size_t i : sc.spot)
            spot.push_back(ns.plot.magnitude[i]);
        if (std::string err = check_equivalent(spot, sc.oracle[0].second, 0.0,
                                               "node " + ns.node + " vs column path");
            !err.empty())
            return err;
        if (summary.find(ns.node) == std::string::npos)
            return "node summary does not name " + ns.node;
        return {};
    }

    std::string check_all(const sweep_case& sc, const core::stability_report& rep,
                          const std::string& text)
    {
        if (std::string err = check_all_nodes(rep, sc.input.tanks, sc.oracle); !err.empty())
            return err;
        if (text.find("Loop at") == std::string::npos)
            return "all-nodes report lists no loop";
        return {};
    }

    /// Set-up as the user pays it before the first frequency point:
    /// parse + DC + linearize + symbolic, through the public calls.
    double sweep_setup_once(const sweep_case& sc)
    {
        const auto t0 = clock_type::now();
        spice::parsed_netlist net = spice::parse_netlist_file(sc.path);
        core::stability_analyzer an(net.ckt, sc.sopt);
        const engine::linearized_snapshot snap(net.ckt, an.operating_point(),
                                               injection_snapshot(sc.sopt));
        const auto sym = snap.shared_symbolic(sc.omega_mid(), sc.sopt.tuning.ordering);
        if (sym == nullptr)
            throw std::runtime_error("no symbolic factorization");
        return since(t0);
    }

    /// One untraced iteration exactly as `acstab stability` runs it.
    std::string sweep_iteration(const sweep_case& sc)
    {
        spice::parsed_netlist net = spice::parse_netlist_file(sc.path);
        core::stability_analyzer an(net.ckt, sc.sopt);
        if (sc.mode == sweep_mode::node) {
            const core::node_stability ns = an.analyze_node(sc.probe().node);
            return check_node(sc, ns, core::format_node_summary(ns));
        }
        const core::stability_report rep = an.analyze_all_nodes();
        return check_all(sc, rep, core::format_all_nodes_report(rep));
    }

    /// Per-layer numbers of one traced sweep iteration.
    struct sweep_layers {
        bool complete = false;
        int root = -1;
        double dc_iters = 0.0;
        double cold_factors = 0.0;
        double loops = 0.0;
        std::unique_ptr<engine::linearized_snapshot> snap; ///< the replay's input
        std::vector<engine::sweep_engine::injection> injections;
    };

    /// One traced iteration: analyze_node / analyze_all_nodes replayed
    /// through the public call of each layer, one span per layer.
    std::string traced_sweep_iteration(bench_run& s, const sweep_case& sc, int it,
                                       sweep_layers& lay)
    {
        tracer& tr = s.trace;
        lay.root = tr.begin("iteration", -1, it);
        const int root = lay.root;
        spice::parsed_netlist net = tr.timed(
            "spice.parse", root, it, [&] { return spice::parse_netlist_file(sc.path); });
        spice::circuit& c = net.ckt;
        const spice::dc_result op = tr.timed("spice.dc", root, it, [&] {
            return spice::dc_operating_point(c, analyzer_dc(sc.sopt));
        });
        lay.dc_iters = op.iterations;
        std::vector<bool> forced;
        lay.snap = tr.timed("engine.linearize", root, it, [&] {
            c.finalize();
            forced = sc.mode == sweep_mode::all && sc.sopt.skip_forced_nodes
                ? c.source_forced_nodes()
                : std::vector<bool>(c.node_count(), false);
            return std::make_unique<engine::linearized_snapshot>(c, op.solution,
                                                                 injection_snapshot(sc.sopt));
        });
        tr.timed("numeric.symbolic", root, it, [&] {
            return lay.snap->shared_symbolic(sc.omega_mid(), sc.sopt.tuning.ordering);
        });

        lay.injections.clear();
        if (sc.mode == sweep_mode::node) {
            lay.injections.push_back(
                {static_cast<std::size_t>(*c.find_node(sc.probe().node)), cplx{1.0, 0.0}});
        } else {
            for (std::size_t k = 0; k < c.node_count(); ++k)
                if (!forced[k])
                    lay.injections.push_back({k, cplx{1.0, 0.0}});
        }
        const std::size_t nf = sc.freqs.size();
        std::vector<std::vector<real>> magnitude(lay.injections.size(),
                                                 std::vector<real>(nf, 0.0));
        engine::sweep_stats stats;
        engine::sweep_engine_options eo = engine_options(sc.sopt);
        eo.stats = &stats;
        tr.timed("engine.sweep", root, it, [&] {
            engine::sweep_engine(eo).run_injections(
                *lay.snap, sc.freqs, lay.injections,
                [&magnitude, &lay](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
                    magnitude[ri][fi] = std::abs(sol[lay.injections[ri].index]);
                });
        });
        lay.cold_factors = static_cast<double>(stats.cold_factors.load());

        std::string err;
        if (sc.mode == sweep_mode::node) {
            const core::node_stability ns = tr.timed("core.plot", root, it, [&] {
                return node_result(sc.probe().node, sc.freqs, magnitude[0], sc.sopt.plot);
            });
            const std::string text
                = tr.timed("core.report", root, it, [&] { return core::format_node_summary(ns); });
            err = check_node(sc, ns, text);
        } else {
            const core::stability_report rep = tr.timed("core.plot", root, it, [&] {
                core::stability_report r;
                r.factorizations = nf;
                for (std::size_t k = 0; k < c.node_count(); ++k)
                    if (forced[k])
                        r.skipped_nodes.push_back(c.node_name(static_cast<spice::node_id>(k)));
                for (std::size_t ri = 0; ri < lay.injections.size(); ++ri)
                    r.nodes.push_back(node_result(
                        c.node_name(static_cast<spice::node_id>(lay.injections[ri].index)),
                        sc.freqs, magnitude[ri], sc.sopt.plot));
                // Same order and grouping as analyze_all_nodes.
                std::sort(r.nodes.begin(), r.nodes.end(),
                          [](const core::node_stability& a, const core::node_stability& b) {
                              if (a.has_peak != b.has_peak)
                                  return a.has_peak;
                              if (!a.has_peak)
                                  return a.node < b.node;
                              if (a.dominant.freq_hz != b.dominant.freq_hz)
                                  return a.dominant.freq_hz < b.dominant.freq_hz;
                              return a.node < b.node;
                          });
                r.loops = core::group_loops(r.nodes, sc.sopt.group_rel_tol);
                return r;
            });
            lay.loops = static_cast<double>(rep.loops.size());
            const std::string text = tr.timed("core.report", root, it, [&] {
                return core::format_all_nodes_report(rep);
            });
            err = check_all(sc, rep, text);
        }
        tr.end(root);
        lay.complete = true;
        return err;
    }

    /// Split engine.sweep into assemble / refactor / solve by replaying the
    /// grid through linearized_snapshot::assemble, numeric_lu::refactor and
    /// numeric_lu::solve_batch, configured as the sweep engine configures
    /// its workers (the engine's residual guard is not replayed).
    void replay_sweep(bench_run& s, const sweep_case& sc, const sweep_layers& lay)
    {
        tracer& tr = s.trace;
        const int root = tr.begin("replay", -1, -1);
        const engine::linearized_snapshot& snap = *lay.snap;
        numeric::csc_matrix<cplx> ws = snap.make_workspace();
        tr.timed("numeric.order", root, -1, [&] {
            return numeric::approx_minimum_degree_order(ws.cols(), ws.col_ptr(), ws.row_idx());
        });
        const auto sym = snap.shared_symbolic(sc.omega_mid(), sc.sopt.tuning.ordering);
        const kernel_counts kc = count_kernels(*sym);
        numeric::numeric_lu<cplx> lu(sym);
        lu.set_batch_kernel(sc.sopt.tuning.simd ? numeric::batch_kernel::simd
                                                : numeric::batch_kernel::scalar);
        lu.set_supernodal(sc.sopt.tuning.supernodal);

        const std::size_t n = snap.size();
        const std::size_t block = std::min<std::size_t>(engine::sweep_engine_options{}.rhs_block,
                                                        lay.injections.size());
        std::vector<cplx> b(n * block, cplx{});
        std::vector<cplx> x(n * block);
        std::vector<const cplx*> bp(block);
        for (std::size_t r = 0; r < block; ++r)
            bp[r] = b.data() + r * n;
        std::size_t rhs = 0;
        for (const real f : sc.freqs) {
            tr.timed("engine.assemble", root, -1, [&] { snap.assemble(to_omega(f), ws); });
            tr.timed("numeric.refactor", root, -1, [&] { lu.refactor(ws); });
            for (std::size_t r0 = 0; r0 < lay.injections.size(); r0 += block) {
                const std::size_t nr = std::min(block, lay.injections.size() - r0);
                for (std::size_t r = 0; r < nr; ++r)
                    b[r * n + lay.injections[r0 + r].index] = lay.injections[r0 + r].value;
                tr.timed("numeric.solve", root, -1,
                         [&] { lu.solve_batch(bp.data(), nr, x.data()); });
                for (std::size_t r = 0; r < nr; ++r)
                    b[r * n + lay.injections[r0 + r].index] = cplx{};
                rhs += nr;
            }
        }
        tr.end(root);

        const double assemble_ms = tr.total_ms("engine.assemble", root);
        const double refactor_ms = tr.total_ms("numeric.refactor", root);
        const double solve_ms = tr.total_ms("numeric.solve", root);
        const double refactors = static_cast<double>(sc.freqs.size());
        s.set("numeric.order_ms", tr.total_ms("numeric.order", root));
        s.set("numeric.lu_nnz", kc.lu_nnz);
        s.set("numeric.supernodes", kc.supernodes);
        s.set("engine.assemble_ms", assemble_ms);
        s.set("numeric.refactor_ms", refactor_ms);
        s.set("numeric.refactors", refactors);
        s.set("numeric.refactor_flops", kc.refactor_flops);
        s.set("numeric.refactor_gflops", kc.refactor_flops * refactors / (refactor_ms * 1e6));
        s.set("numeric.solve_ms", solve_ms);
        s.set("numeric.solve_rhs", static_cast<double>(rhs));
        s.set("numeric.solve_flops", kc.solve_flops);
        const double sweep_ms = s.result.metrics["engine.sweep_ms"];
        s.set("trace.replay_ratio", (assemble_ms + refactor_ms + solve_ms) / sweep_ms);
    }

    void run_sweep(bench_run& s, sweep_mode mode, const mesh_spec& spec)
    {
        sweep_case sc{
            .mode = mode, .input = make_mesh(spec, s.opt.seed), .path = s.dir + "/mesh.sp"};
        write_file(sc.path, sc.input.netlist);
        if (mode == sweep_mode::node)
            build_node_oracle(sc);
        else
            build_all_oracle(sc);
        const bool rss_ok = reset_peak_rss();

        const untraced_samples u = measure_untraced(
            s, [&] { return sweep_setup_once(sc); }, [&] { return sweep_iteration(sc); });
        if (!s.opt.trace) {
            set_end_to_end(s, u, static_cast<double>(sc.freqs.size()), rss_ok);
            return;
        }
        const double wall = median(u.wall);

        std::vector<sweep_layers> layers;
        run_for(s, 0.35 * s.opt.seconds, 1, [&](std::size_t i) {
            layers.emplace_back();
            s.record(traced_sweep_iteration(s, sc, static_cast<int>(i), layers.back()));
        });
        std::erase_if(layers, [](const sweep_layers& l) { return !l.complete; });
        if (layers.empty())
            throw std::runtime_error("no traced iteration completed");
        const auto layer_median = [&](const std::string& name) {
            std::vector<double> v;
            for (const sweep_layers& l : layers)
                v.push_back(s.trace.total_ms(name, l.root));
            return median(v);
        };
        std::vector<double> traced_walls;
        std::vector<double> coverage;
        for (const sweep_layers& l : layers) {
            traced_walls.push_back(s.trace.duration_ms(l.root));
            coverage.push_back(s.trace.children_ms(l.root) / s.trace.duration_ms(l.root));
        }
        s.set("spice.parse_ms", layer_median("spice.parse"));
        s.set("spice.dc_ms", layer_median("spice.dc"));
        s.set("spice.dc_newton_iters", layers.back().dc_iters);
        s.set("engine.linearize_ms", layer_median("engine.linearize"));
        s.set("numeric.symbolic_ms", layer_median("numeric.symbolic"));
        s.set("engine.sweep_ms", layer_median("engine.sweep"));
        s.set("engine.cold_factors", layers.back().cold_factors);
        s.set("core.plot_ms", layer_median("core.plot"));
        s.set("core.report_ms", layer_median("core.report"));
        s.set("core.loops", layers.back().loops);
        s.set("trace.coverage", median(coverage));
        s.set("trace.overhead", median(traced_walls) / (1e3 * wall));
        replay_sweep(s, sc, layers.back());
    }

    // ------------------------------------------------------------------
    // mesh-step: the transient step-response cross-check.

    void run_step(bench_run& s, const mesh_spec& spec)
    {
        const mesh_input in = make_mesh(spec, s.opt.seed);
        const std::string path = s.dir + "/mesh.sp";
        write_file(path, in.netlist);
        const tank& t = in.tanks[in.probe];

        core::tran_stability_options topt;
        topt.tstop = 16.0 / t.f0_hz; // 16 cycles of the planted ring
        topt.dt = topt.tstop / 500.0;
        topt.max_points = std::size_t{1} << 20; // keep every time point
        core::tran_stability_options oneshot = topt;
        oneshot.tran.shared_solver = false;

        const auto measure = [&path, &t](const core::tran_stability_options& o) {
            spice::parsed_netlist net = spice::parse_netlist_file(path);
            return core::measure_tran_stability(net.ckt, t.node, o);
        };
        const core::tran_stability_result oracle = measure(oneshot);
        const auto check = [&](const core::tran_stability_result& r) {
            if (std::string err = check_tran_loop(r, t); !err.empty())
                return err;
            return check_tran_equivalent(r, oracle);
        };
        const bool rss_ok = reset_peak_rss();

        const auto setup_once = [&] {
            const auto t0 = clock_type::now();
            spice::parsed_netlist net = spice::parse_netlist_file(path);
            (void)spice::dc_operating_point(net.ckt, topt.tran.dc);
            return since(t0);
        };
        const untraced_samples u
            = measure_untraced(s, setup_once, [&] { return check(measure(topt)); });
        if (!s.opt.trace) {
            set_end_to_end(s, u, static_cast<double>(oracle.time.size()), rss_ok);
            return;
        }
        const double wall = median(u.wall);

        tracer& tr = s.trace;
        std::vector<int> roots;
        core::tran_stability_result last;
        run_for(s, 0.4 * s.opt.seconds, 1, [&](std::size_t i) {
            const int it = static_cast<int>(i);
            const int root = tr.begin("iteration", -1, it);
            spice::parsed_netlist net = tr.timed(
                "spice.parse", root, it, [&] { return spice::parse_netlist_file(path); });
            last = tr.timed("spice.tran", root, it, [&] {
                return core::measure_tran_stability(net.ckt, t.node, topt);
            });
            tr.end(root);
            roots.push_back(root);
            s.record(check(last));
        });
        const int replay = tr.begin("replay", -1, -1);
        spice::parsed_netlist net = spice::parse_netlist_file(path);
        const spice::dc_result op = tr.timed(
            "spice.dc", replay, -1, [&] { return spice::dc_operating_point(net.ckt, topt.tran.dc); });
        tr.end(replay);

        std::vector<double> parse, tran, cover, traced;
        for (const int root : roots) {
            parse.push_back(tr.total_ms("spice.parse", root));
            tran.push_back(tr.total_ms("spice.tran", root));
            cover.push_back(tr.children_ms(root) / tr.duration_ms(root));
            traced.push_back(tr.duration_ms(root));
        }
        s.set("spice.parse_ms", median(parse));
        s.set("spice.dc_ms", tr.total_ms("spice.dc", replay));
        s.set("spice.dc_newton_iters", op.iterations);
        s.set("spice.tran_ms", median(tran));
        s.set("spice.tran_solves", static_cast<double>(last.solver.solves));
        s.set("spice.tran_symbolic_builds", static_cast<double>(last.solver.symbolic_builds));
        s.set("spice.tran_guard_rebuilds", static_cast<double>(last.solver.guard_rebuilds));
        s.set("trace.coverage", median(cover));
        s.set("trace.overhead", median(traced) / (1e3 * wall));
    }

    // ------------------------------------------------------------------
    // follower-farm: a 2-worker corner campaign through the real tool.

    struct farm_case {
        farm::campaign_spec spec;
        std::string plan_path;
        std::string truth_path;
        std::string workdir;
        std::string report;
        std::string tool;
    };

    struct campaign_run {
        double wall_s = 0.0;
        double setup_s = 0.0; ///< exec start to the first on_point record
        std::vector<double> point_times;
        farm::exec_summary summary;
    };

    campaign_run run_campaign(const farm_case& fc)
    {
        fs::remove_all(fc.workdir);
        fs::remove(fc.report);
        campaign_run run;
        run.point_times.reserve(fc.spec.grid.size());
        farm::exec_options eo;
        eo.workers = 2;
        eo.workdir = fc.workdir;
        eo.out = fc.report;
        eo.plan_path = fc.plan_path;
        eo.tool_path = fc.tool;
        eo.verbose = false;
        const auto t0 = clock_type::now();
        eo.on_point = [&run, t0](std::size_t, const std::string&) {
            run.point_times.push_back(since(t0));
        };
        run.summary = farm::exec_campaign(fc.spec, eo);
        run.wall_s = since(t0);
        run.setup_s = run.point_times.empty() ? run.wall_s : run.point_times.front();
        return run;
    }

    std::string check_campaign(const farm_case& fc, const campaign_run& run)
    {
        if (!run.summary.quarantined.empty())
            return std::to_string(run.summary.quarantined.size()) + " point(s) quarantined";
        if (run.summary.completed != run.summary.total || run.summary.interrupted)
            return "campaign finished " + std::to_string(run.summary.completed) + "/"
                + std::to_string(run.summary.total) + " points";
        return check_same_bytes(fc.report, fc.truth_path);
    }

    /// In-process single-shard truth (run_shard + merge_shards), written
    /// to disk so its bytes do not stay resident. Returns the number of
    /// points whose own analysis failed (e.g. DC non-convergence at that
    /// temperature): the report records them, so they are results of a
    /// successful campaign, not failed operations.
    std::size_t write_truth(const farm_case& fc)
    {
        const std::vector<farm::point_record> records = farm::run_shard(fc.spec, 0, 1, 1);
        const farm::json_value doc = farm::shard_to_json(fc.spec, 0, 1, records);
        write_file(fc.truth_path, farm::merge_shards(fc.spec, {doc}).dump() + "\n");
        return static_cast<std::size_t>(
            std::count_if(records.begin(), records.end(), [](const farm::point_record& r) {
                return r.status != core::point_status::ok;
            }));
    }

    void run_farm(bench_run& s, std::size_t points)
    {
        farm_case fc;
        fc.spec.netlist = s.opt.root + "/netlists/follower.sp";
        fc.spec.node = "f_out";
        // The netlist's own .stability band.
        fc.spec.fstart = 1e5;
        fc.spec.fstop = 1e10;
        fc.spec.points_per_decade = 50;
        fc.spec.grid.temps = make_temperature_grid(points, s.opt.seed);
        fc.plan_path = s.dir + "/plan.json";
        fc.truth_path = s.dir + "/truth.json";
        fc.workdir = s.dir + "/work";
        fc.report = s.dir + "/report.json";
        fc.tool = s.opt.tool_path;
        write_file(fc.plan_path, farm::to_json(fc.spec).dump() + "\n");

        tracer& tr = s.trace;
        const int compute_replay = tr.begin("replay", -1, -1);
        const std::size_t failed_points
            = tr.timed("farm.compute", compute_replay, -1, [&] { return write_truth(fc); });
        tr.end(compute_replay);
        if (failed_points > 0)
            std::fprintf(stderr,
                         "bench_e2e: follower-farm: %zu of %zu points report an analysis error "
                         "(recorded in the report and in the truth alike)\n",
                         failed_points, points);
        const bool rss_ok = reset_peak_rss();

        untraced_samples u;
        run_for(
            s, s.opt.trace ? 0.4 * s.opt.seconds : s.opt.seconds, s.opt.trace ? 1 : 5,
            [&](std::size_t) {
                const campaign_run run = run_campaign(fc);
                u.wall.push_back(run.wall_s);
                u.setup.push_back(run.setup_s);
                s.record(check_campaign(fc, run), points);
            },
            points);
        if (!s.opt.trace) {
            set_end_to_end(s, u, static_cast<double>(points), rss_ok);
            fs::remove_all(fc.workdir);
            return;
        }
        const double wall = median(u.wall);

        std::vector<int> roots;
        std::vector<double> gaps;
        double quarantined = 0.0;
        run_for(s, 0.3 * s.opt.seconds, 1, [&](std::size_t i) {
            const int it = static_cast<int>(i);
            const int root = tr.begin("iteration", -1, it);
            const campaign_run run
                = tr.timed("farm.exec", root, it, [&] { return run_campaign(fc); });
            tr.end(root);
            roots.push_back(root);
            gaps.clear();
            for (std::size_t p = 1; p < run.point_times.size(); ++p)
                gaps.push_back(1e3 * (run.point_times[p] - run.point_times[p - 1]));
            quarantined = static_cast<double>(run.summary.quarantined.size());
            s.record(check_campaign(fc, run), points);
        }, points);

        // Replays on the last traced campaign's state.
        const int replay = tr.begin("replay", -1, -1);
        std::vector<std::string> shards;
        double shard_bytes = 0.0;
        for (const auto& e : fs::directory_iterator(fc.workdir)) {
            const std::string name = e.path().filename().string();
            if (name.rfind("worker-", 0) == 0 && e.path().extension() == ".jsonl") {
                shards.push_back(e.path().string());
                shard_bytes += static_cast<double>(e.file_size());
            }
        }
        std::sort(shards.begin(), shards.end());
        const std::string remerged = s.dir + "/remerged.json";
        tr.timed("farm.merge", replay, -1,
                 [&] { return farm::merge_shard_streams(fc.spec, shards, {}, remerged); });
        if (std::string err = check_same_bytes(remerged, fc.truth_path); !err.empty())
            throw std::runtime_error("merge replay: " + err);
        // Per-point rebuild + DC Newton, as each worker pays them.
        const core::circuit_template tmpl{fc.spec.netlist, {}};
        const spice::dc_options dc = analyzer_dc(fc.spec.stability_options(1));
        double dc_iters = 0.0;
        for (std::size_t p = 0; p < points; ++p) {
            spice::parsed_netlist net = tr.timed(
                "spice.parse", replay, -1, [&] { return tmpl.build(fc.spec.grid.point(p)); });
            // A point whose DC does not converge still pays the whole
            // continuation ladder; the farm records it as dc_failed.
            tr.timed("spice.dc", replay, -1, [&] {
                try {
                    dc_iters += spice::dc_operating_point(net.ckt, dc).iterations;
                } catch (const convergence_error&) {
                }
            });
        }
        tr.end(replay);

        std::vector<double> exec_ms, cover;
        for (const int root : roots) {
            exec_ms.push_back(tr.total_ms("farm.exec", root));
            cover.push_back(tr.children_ms(root) / tr.duration_ms(root));
        }
        s.set("spice.parse_ms", tr.total_ms("spice.parse", replay));
        s.set("spice.dc_ms", tr.total_ms("spice.dc", replay));
        s.set("spice.dc_newton_iters", dc_iters);
        s.set("farm.exec_ms", median(exec_ms));
        s.set("farm.compute_ms", tr.total_ms("farm.compute", compute_replay));
        s.set("farm.merge_ms", tr.total_ms("farm.merge", replay));
        s.set("farm.shard_bytes", shard_bytes);
        s.set("farm.report_bytes", static_cast<double>(fs::file_size(fc.report)));
        s.set("farm.point_gap_p95_ms", percentile(gaps, 0.95));
        s.set("farm.quarantined", quarantined);
        s.set("farm.failed_points", static_cast<double>(failed_points));
        s.set("trace.coverage", median(cover));
        s.set("trace.overhead", median(exec_ms) / (1e3 * wall));
        fs::remove_all(fc.workdir);
    }

} // namespace

run_result run_workload(const run_options& opt)
{
    bench_run s{opt, opt.workdir + "/" + opt.workload + "-" + std::to_string(opt.seed) + "-"
                       + std::to_string(::getpid()),
              {}, {}};
    fs::create_directories(s.dir);
    struct cleanup {
        std::string dir;
        ~cleanup()
        {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } guard{s.dir};

    if (opt.workload == "mesh-node") {
        run_sweep(s, sweep_mode::node, {.size = 2025, .tanks = 3});
    } else if (opt.workload == "mesh-all") {
        run_sweep(s, sweep_mode::all, {.size = 400, .tanks = 4});
    } else if (opt.workload == "mesh-step") {
        run_step(s, {.size = 1024, .tanks = 1});
    } else if (opt.workload == "follower-farm") {
        run_farm(s, 1000);
    } else {
        throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    if (opt.trace)
        s.trace.write_json(opt.workdir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed)
                           + ".json");
    return std::move(s.result);
}

} // namespace bench
