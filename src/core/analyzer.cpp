#include "core/analyzer.h"

#include <algorithm>
#include <cmath>

#include "core/second_order.h"
#include "engine/frequency_sweep.h"
#include "engine/linearized_snapshot.h"

namespace acstab::core {

namespace {

    /// Snapshot with every AC stimulus zeroed: the stability sweeps inject
    /// their own unit-current right-hand sides.
    engine::linearized_snapshot make_injection_snapshot(spice::circuit& c,
                                                        const std::vector<real>& op,
                                                        const stability_options& opt)
    {
        engine::snapshot_options sopt;
        sopt.gmin = opt.gmin;
        sopt.gshunt = opt.gshunt;
        sopt.zero_all_sources = true;
        return engine::linearized_snapshot(c, op, sopt);
    }

    engine::sweep_policy sweep_policy(const stability_options& opt)
    {
        engine::sweep_policy policy;
        policy.adaptive = opt.adaptive;
        policy.threads = opt.threads;
        policy.solver = opt.solver;
        policy.tuning = opt.tuning;
        return policy;
    }

} // namespace

stability_analyzer::stability_analyzer(spice::circuit& c, stability_options opt)
    : circuit_(c), opt_(std::move(opt))
{
}

const std::vector<real>& stability_analyzer::operating_point()
{
    if (!op_) {
        spice::dc_options dc = opt_.dc;
        dc.gmin = opt_.gmin;
        dc.solver = opt_.solver;
        op_ = spice::dc_operating_point(circuit_, dc);
    }
    return op_->solution;
}

node_stability stability_analyzer::make_node_result(std::string node_name,
                                                    std::vector<real> freqs,
                                                    std::vector<real> magnitude) const
{
    node_stability ns;
    ns.node = std::move(node_name);
    ns.plot = compute_stability_plot(freqs, magnitude, opt_.plot);
    if (const stability_peak* peak = ns.plot.dominant_pole(); peak != nullptr) {
        ns.has_peak = true;
        ns.dominant = *peak;
        if (peak->value < 0.0) {
            ns.zeta = zeta_from_performance_index(peak->value);
            ns.phase_margin_est_deg = std::min(phase_margin_rule_deg(ns.zeta), 90.0);
            ns.overshoot_est_pct = overshoot_percent(ns.zeta);
            ns.is_underdamped = peak->flag == peak_flag::normal && ns.zeta < 1.0;
        }
    }
    return ns;
}

node_stability stability_analyzer::analyze_node(const std::string& node_name)
{
    const auto node = circuit_.find_node(node_name);
    if (!node)
        throw analysis_error("stability: unknown node '" + node_name + "'");
    if (*node < 0)
        throw analysis_error("stability: cannot analyze the ground node");

    const std::vector<real>& op = operating_point();

    // The paper attaches an AC current stimulus to the node with every
    // other AC source zeroed; in engine terms that is a single injected
    // right-hand side against the zero-stimulus snapshot.
    const engine::linearized_snapshot snap = make_injection_snapshot(circuit_, op, opt_);
    const std::size_t k = static_cast<std::size_t>(*node);
    const std::vector<engine::sweep_engine::injection> injections{
        {k, cplx{opt_.stimulus_amps, 0.0}}};
    const engine::sweep_result res = engine::frequency_sweep(
        snap, opt_.sweep.frequencies(), injections, {{0, k}}, sweep_policy(opt_));

    // Normalize to impedance.
    std::vector<real> magnitude(res.freq_hz.size());
    for (std::size_t i = 0; i < magnitude.size(); ++i)
        magnitude[i] = std::abs(res.values[0][i]) / opt_.stimulus_amps;
    return make_node_result(node_name, res.freq_hz, std::move(magnitude));
}

stability_report stability_analyzer::analyze_all_nodes()
{
    const std::vector<real>& op = operating_point();
    circuit_.finalize();

    const std::size_t node_count = circuit_.node_count();
    const std::vector<real> freqs = opt_.sweep.frequencies();
    const std::size_t nf = freqs.size();

    std::vector<bool> forced(node_count, false);
    if (opt_.skip_forced_nodes)
        forced = circuit_.source_forced_nodes();

    // Each analyzable node's driving-point impedance is the diagonal
    // entry of Y(jw)^-1 (the response to a unit current into the node —
    // the paper's one-simulation-per-node loop). The fixed grid reads
    // that diagonal straight from each frequency's LU factors by
    // selected inversion, parallel over frequencies on the shared pool.
    const engine::linearized_snapshot snap = make_injection_snapshot(circuit_, op, opt_);
    std::vector<std::size_t> unknowns;
    for (std::size_t k = 0; k < node_count; ++k)
        if (!forced[k])
            unknowns.push_back(k);

    std::vector<real> grid = freqs;
    std::size_t factorizations = nf;
    // magnitude[node][freq]
    std::vector<std::vector<real>> magnitude(node_count);
    if (opt_.adaptive && !unknowns.empty()) {
        // One unit-current injection and channel per node (each node
        // observes its own driving-point response): the adaptive sweep's
        // refinement check needs full solution vectors. It refines on the
        // worst node so a single solved grid serves every right-hand side.
        std::vector<engine::sweep_engine::injection> injections;
        std::vector<engine::sweep_channel> channels;
        for (const std::size_t k : unknowns) {
            channels.push_back({injections.size(), k});
            injections.push_back({k, cplx{1.0, 0.0}});
        }
        const engine::sweep_result res
            = engine::frequency_sweep(snap, freqs, injections, channels, sweep_policy(opt_));
        grid = res.freq_hz;
        factorizations = res.factorizations;
        for (std::size_t ri = 0; ri < unknowns.size(); ++ri) {
            std::vector<real>& mag = magnitude[unknowns[ri]];
            mag.resize(grid.size());
            for (std::size_t fi = 0; fi < grid.size(); ++fi)
                mag[fi] = std::abs(res.values[ri][fi]);
        }
    } else {
        for (std::size_t k = 0; k < node_count; ++k)
            magnitude[k].assign(nf, 0.0);
        engine::sweep_engine(sweep_policy(opt_).engine()).run_inverse_diagonal(
            snap, freqs, unknowns,
            [&magnitude, &unknowns](std::size_t fi, std::span<const cplx> diag) {
                for (std::size_t i = 0; i < unknowns.size(); ++i)
                    magnitude[unknowns[i]][fi] = std::abs(diag[i]);
            });
    }

    stability_report report = build_report(grid, std::move(magnitude), forced);
    report.factorizations = factorizations;
    return report;
}

stability_report stability_analyzer::build_report(const std::vector<real>& grid,
                                                  std::vector<std::vector<real>> magnitude,
                                                  const std::vector<bool>& skipped) const
{
    stability_report report;
    for (std::size_t k = 0; k < magnitude.size(); ++k) {
        const std::string& name = circuit_.node_name(static_cast<spice::node_id>(k));
        if (skipped[k]) {
            report.skipped_nodes.push_back(name);
            continue;
        }
        report.nodes.push_back(make_node_result(name, grid, std::move(magnitude[k])));
    }

    std::sort(report.nodes.begin(), report.nodes.end(),
              [](const node_stability& a, const node_stability& b) {
                  if (a.has_peak != b.has_peak)
                      return a.has_peak;
                  if (!a.has_peak)
                      return a.node < b.node;
                  if (a.dominant.freq_hz != b.dominant.freq_hz)
                      return a.dominant.freq_hz < b.dominant.freq_hz;
                  return a.node < b.node;
              });
    report.loops = group_loops(report.nodes, opt_.group_rel_tol);
    return report;
}

std::vector<loop_group> group_loops(const std::vector<node_stability>& nodes, real rel_tol)
{
    std::vector<loop_group> loops;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i].has_peak)
            continue;
        const real f = nodes[i].dominant.freq_hz;
        if (!loops.empty()) {
            loop_group& last = loops.back();
            if (std::fabs(f - last.freq_hz) <= rel_tol * last.freq_hz) {
                last.members.push_back(i);
                continue;
            }
        }
        loop_group g;
        g.freq_hz = f;
        g.members.push_back(i);
        loops.push_back(std::move(g));
    }
    // Representative frequency: strongest member's natural frequency.
    for (loop_group& g : loops) {
        real best = 0.0;
        for (const std::size_t idx : g.members) {
            const node_stability& ns = nodes[idx];
            if (ns.dominant.value < best) {
                best = ns.dominant.value;
                g.freq_hz = ns.dominant.freq_hz;
            }
        }
    }
    return loops;
}

} // namespace acstab::core
