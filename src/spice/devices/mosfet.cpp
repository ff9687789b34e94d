#include "spice/devices/mosfet.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace acstab::spice {

namespace {

    /// SPICE3 DEVfetlim: limit the Newton step of a gate voltage so one
    /// iterate cannot swing the channel from deep off to deep on (or back)
    /// around the threshold vto. Counts a noncon when it moves vnew.
    [[nodiscard]] real fetlim(real vnew, real vold, real vto, int& noncon) noexcept
    {
        const real requested = vnew;
        const real vtsthi = std::fabs(2.0 * (vold - vto)) + 2.0;
        const real vtstlo = std::fabs(vold - vto) + 1.0;
        const real vtox = vto + 3.5;
        const real delv = vnew - vold;
        if (vold >= vto) {
            if (vold >= vtox) {
                if (delv <= 0.0) {
                    // going off
                    if (vnew >= vtox) {
                        if (-delv > vtstlo)
                            vnew = vold - vtstlo;
                    } else {
                        vnew = std::max(vnew, vto + 2.0);
                    }
                } else if (delv >= vtsthi) {
                    vnew = vold + vtsthi; // staying on
                }
            } else if (delv <= 0.0) {
                vnew = std::max(vnew, vto - 0.5); // middle region, decreasing
            } else {
                vnew = std::min(vnew, vto + 4.0); // middle region, increasing
            }
        } else if (delv <= 0.0) {
            if (-delv > vtsthi)
                vnew = vold - vtsthi; // off, going further off
        } else if (vnew <= vto + 0.5) {
            if (delv > vtstlo)
                vnew = vold + vtstlo; // off, turning on slowly
        } else {
            vnew = vto + 0.5; // off, turning on
        }
        if (vnew != requested)
            ++noncon;
        return vnew;
    }

    /// SPICE3 DEVlimvds: limit the Newton step of a drain-source voltage.
    /// Counts a noncon when it moves vnew.
    [[nodiscard]] real limvds(real vnew, real vold, int& noncon) noexcept
    {
        const real requested = vnew;
        if (vold >= 3.5) {
            if (vnew > vold)
                vnew = std::min(vnew, 3.0 * vold + 2.0);
            else if (vnew < 3.5)
                vnew = std::max(vnew, 2.0);
        } else if (vnew > vold) {
            vnew = std::min(vnew, 4.0);
        } else {
            vnew = std::max(vnew, -0.5);
        }
        if (vnew != requested)
            ++noncon;
        return vnew;
    }

} // namespace

mosfet::mosfet(std::string name, node_id drain, node_id gate, node_id source, node_id bulk,
               mosfet_model model, real width, real length)
    : device(std::move(name), {drain, gate, source, bulk}), model_(model), w_(width), l_(length)
{
    if (!(w_ > 0.0) || !(l_ > 0.0))
        throw circuit_error("mosfet " + this->name() + ": W and L must be positive");
}

mosfet::eval_result mosfet::evaluate_forward(real vgs, real vds, real vbs) const noexcept
{
    eval_result r;

    // Threshold with body effect; forward body bias is linearized.
    real vth = model_.vto;
    real dvth_dvbs = 0.0;
    if (model_.gamma > 0.0) {
        const real sphi = std::sqrt(model_.phi);
        if (vbs <= 0.0) {
            const real sq = std::sqrt(model_.phi - vbs);
            vth += model_.gamma * (sq - sphi);
            dvth_dvbs = -model_.gamma / (2.0 * sq);
        } else {
            const real sq = std::max(sphi - vbs / (2.0 * sphi), 0.0);
            vth += model_.gamma * (sq - sphi);
            dvth_dvbs = sq > 0.0 ? -model_.gamma / (2.0 * sphi) : 0.0;
        }
    }

    const real beta = model_.kp * w_ / l_;
    const real vov = vgs - vth;
    const real cox_total = model_.cox * w_ * l_;
    const real cgs_ov = model_.cgso * w_;
    const real cgd_ov = model_.cgdo * w_;

    if (vov <= 0.0) {
        r.region = 0;
        r.cgs = cgs_ov;
        r.cgd = cgd_ov;
        r.cgb = cox_total;
        return r;
    }

    const real clm = 1.0 + model_.lambda * vds;
    real gm = 0.0;
    if (vds < vov) {
        r.region = 1;
        const real core = vov * vds - 0.5 * vds * vds;
        r.id = beta * core * clm;
        gm = beta * vds * clm;
        r.did_dvds = beta * (vov - vds) * clm + beta * core * model_.lambda;
        r.cgs = 0.5 * cox_total + cgs_ov;
        r.cgd = 0.5 * cox_total + cgd_ov;
    } else {
        r.region = 2;
        const real core = 0.5 * vov * vov;
        r.id = beta * core * clm;
        gm = beta * vov * clm;
        r.did_dvds = beta * core * model_.lambda;
        r.cgs = (2.0 / 3.0) * cox_total + cgs_ov;
        r.cgd = cgd_ov;
    }
    r.did_dvgs = gm;
    r.did_dvbs = -gm * dvth_dvbs;
    r.cgb = 0.0;
    return r;
}

mosfet::eval_result mosfet::evaluate(real vgs, real vds, real vbs) const noexcept
{
    if (vds >= 0.0)
        return evaluate_forward(vgs, vds, vbs);
    // Source and drain exchange roles: id(vgs,vds,vbs) = -idf(vgd,-vds,vbd).
    const eval_result f = evaluate_forward(vgs - vds, -vds, vbs - vds);
    eval_result r;
    r.region = f.region;
    r.id = -f.id;
    r.did_dvgs = -f.did_dvgs;
    r.did_dvds = f.did_dvgs + f.did_dvds + f.did_dvbs;
    r.did_dvbs = -f.did_dvbs;
    // The Meyer caps swap with the terminals.
    r.cgs = f.cgd;
    r.cgd = f.cgs;
    r.cgb = f.cgb;
    return r;
}

void mosfet::dc_begin()
{
    vgs_state_ = 0.0;
    vds_state_ = 0.0;
    init_junctions_ = true;
}

void mosfet::stamp_dc(const std::vector<real>& x, const stamp_params& p, system_builder<real>& b)
{
    const node_id nd = nodes()[0];
    const node_id ng = nodes()[1];
    const node_id ns = nodes()[2];
    const node_id nb = nodes()[3];
    const real pol = model_.polarity == mos_polarity::nmos ? 1.0 : -1.0;

    real vgs = 0.0;
    real vds = 0.0;
    real vbs = 0.0;
    if (init_junctions_) {
        // MODEINITJCT: the first DC iterate starts at threshold with the
        // bulk junction reverse-biased, whatever the guess says.
        vgs = model_.vto;
        vbs = -1.0;
        init_junctions_ = false;
        ++p.noncon;
    } else {
        vgs = pol * unknown_voltage(x, ng, ns);
        vds = pol * unknown_voltage(x, nd, ns);
        vbs = pol * unknown_voltage(x, nb, ns);
        if (p.limit) {
            // SPICE3 mos1load: limit the gate voltage on the side that is
            // currently the source, then the drain-source swing.
            const real vgd = vgs - vds;
            if (vds_state_ >= 0.0) {
                vgs = fetlim(vgs, vgs_state_, model_.vto, p.noncon);
                vds = limvds(vgs - vgd, vds_state_, p.noncon);
            } else {
                const real vgd_lim = fetlim(vgd, vgs_state_ - vds_state_, model_.vto, p.noncon);
                vds = -limvds(vgd_lim - vgs, -vds_state_, p.noncon);
                vgs = vgd_lim + vds;
            }
        }
    }
    vgs_state_ = vgs;
    vds_state_ = vds;
    const eval_result r = evaluate(vgs, vds, vbs);

    // Current into the drain terminal: pol * id; source balances; the
    // polarity cancels in the Jacobian (chain rule applies pol twice).
    // The companion current is built about the terminal voltages of the
    // (limited) linearization point; every row sums to zero, so the
    // source can sit at 0.
    const real vd = pol * vds;
    const real vg = pol * vgs;
    const real vs = 0.0;
    const real vb = pol * vbs;

    // Row d: id; row s = -row d. Columns g, d, b, s.
    const real jg = r.did_dvgs;
    const real jd = r.did_dvds;
    const real jb = r.did_dvbs;
    const real js = -(jg + jd + jb);

    b.add(nd, ng, jg);
    b.add(nd, nd, jd);
    b.add(nd, nb, jb);
    b.add(nd, ns, js);
    b.add(ns, ng, -jg);
    b.add(ns, nd, -jd);
    b.add(ns, nb, -jb);
    b.add(ns, ns, -js);

    const real i0 = pol * r.id;
    const real ieq = i0 - (jg * vg + jd * vd + jb * vb + js * vs);
    b.rhs_add(nd, -ieq);
    b.rhs_add(ns, ieq);

    // Convergence shunts: channel and both bulk junctions.
    b.conductance(nd, ns, p.gmin);
    b.conductance(nd, nb, p.gmin);
    b.conductance(ns, nb, p.gmin);
}

void mosfet::stamp_ac(const std::vector<real>& op, const ac_params& p, system_builder<cplx>& b) const
{
    const node_id nd = nodes()[0];
    const node_id ng = nodes()[1];
    const node_id ns = nodes()[2];
    const node_id nb = nodes()[3];
    const real pol = model_.polarity == mos_polarity::nmos ? 1.0 : -1.0;

    const real vgs = pol * unknown_voltage(op, ng, ns);
    const real vds = pol * unknown_voltage(op, nd, ns);
    const real vbs = pol * unknown_voltage(op, nb, ns);
    const eval_result r = evaluate(vgs, vds, vbs);

    const real jg = r.did_dvgs;
    const real jd = r.did_dvds;
    const real jb = r.did_dvbs;
    const real js = -(jg + jd + jb);
    b.add(nd, ng, cplx{jg, 0.0});
    b.add(nd, nd, cplx{jd, 0.0});
    b.add(nd, nb, cplx{jb, 0.0});
    b.add(nd, ns, cplx{js, 0.0});
    b.add(ns, ng, cplx{-jg, 0.0});
    b.add(ns, nd, cplx{-jd, 0.0});
    b.add(ns, nb, cplx{-jb, 0.0});
    b.add(ns, ns, cplx{-js, 0.0});

    b.conductance(ng, ns, cplx{0.0, p.omega * r.cgs});
    b.conductance(ng, nd, cplx{0.0, p.omega * r.cgd});
    b.conductance(ng, nb, cplx{0.0, p.omega * r.cgb});
    b.conductance(nd, nb, cplx{p.gmin, p.omega * model_.cbd});
    b.conductance(ns, nb, cplx{p.gmin, p.omega * model_.cbs});
    b.conductance(nd, ns, cplx{p.gmin, 0.0});
}

void mosfet::tran_begin(const std::vector<real>& op)
{
    const node_id nd = nodes()[0];
    const node_id ng = nodes()[1];
    const node_id ns = nodes()[2];
    const node_id nb = nodes()[3];
    cap_gs_.begin(unknown_voltage(op, ng, ns));
    cap_gd_.begin(unknown_voltage(op, ng, nd));
    cap_gb_.begin(unknown_voltage(op, ng, nb));
    cap_db_.begin(unknown_voltage(op, nd, nb));
    cap_sb_.begin(unknown_voltage(op, ns, nb));
    const real pol = model_.polarity == mos_polarity::nmos ? 1.0 : -1.0;
    vgs_state_ = pol * unknown_voltage(op, ng, ns);
    vds_state_ = pol * unknown_voltage(op, nd, ns);
    init_junctions_ = false;
}

void mosfet::stamp_tran(const std::vector<real>& x, const tran_params& p, system_builder<real>& b)
{
    stamp_dc(x, p.dc, b);

    const node_id nd = nodes()[0];
    const node_id ng = nodes()[1];
    const node_id ns = nodes()[2];
    const node_id nb = nodes()[3];
    const real pol = model_.polarity == mos_polarity::nmos ? 1.0 : -1.0;
    const real vgs = pol * unknown_voltage(x, ng, ns);
    const real vds = pol * unknown_voltage(x, nd, ns);
    const real vbs = pol * unknown_voltage(x, nb, ns);
    const eval_result r = evaluate(vgs, vds, vbs);

    cap_gs_.stamp(b, ng, ns, r.cgs, p);
    cap_gd_.stamp(b, ng, nd, r.cgd, p);
    cap_gb_.stamp(b, ng, nb, r.cgb, p);
    cap_db_.stamp(b, nd, nb, model_.cbd, p);
    cap_sb_.stamp(b, ns, nb, model_.cbs, p);
}

void mosfet::tran_accept(const std::vector<real>& x, const tran_params& p)
{
    const node_id nd = nodes()[0];
    const node_id ng = nodes()[1];
    const node_id ns = nodes()[2];
    const node_id nb = nodes()[3];
    const real pol = model_.polarity == mos_polarity::nmos ? 1.0 : -1.0;
    const real vgs = pol * unknown_voltage(x, ng, ns);
    const real vds = pol * unknown_voltage(x, nd, ns);
    const real vbs = pol * unknown_voltage(x, nb, ns);
    const eval_result r = evaluate(vgs, vds, vbs);

    cap_gs_.accept(unknown_voltage(x, ng, ns), r.cgs, p);
    cap_gd_.accept(unknown_voltage(x, ng, nd), r.cgd, p);
    cap_gb_.accept(unknown_voltage(x, ng, nb), r.cgb, p);
    cap_db_.accept(unknown_voltage(x, nd, nb), model_.cbd, p);
    cap_sb_.accept(unknown_voltage(x, ns, nb), model_.cbs, p);
}

mosfet_small_signal mosfet::small_signal(const std::vector<real>& op) const
{
    const real pol = model_.polarity == mos_polarity::nmos ? 1.0 : -1.0;
    const real vgs = pol * unknown_voltage(op, nodes()[1], nodes()[2]);
    const real vds = pol * unknown_voltage(op, nodes()[0], nodes()[2]);
    const real vbs = pol * unknown_voltage(op, nodes()[3], nodes()[2]);
    const eval_result r = evaluate(vgs, vds, vbs);
    mosfet_small_signal ss;
    ss.id = pol * r.id;
    ss.gm = r.did_dvgs;
    ss.gds = r.did_dvds;
    ss.gmb = r.did_dvbs;
    ss.cgs = r.cgs;
    ss.cgd = r.cgd;
    ss.cgb = r.cgb;
    ss.region = r.region;
    return ss;
}

} // namespace acstab::spice
