// MOSFET, SPICE Level-1 (Shichman–Hodges) with body effect, channel-length
// modulation and Meyer-style piecewise gate capacitances plus constant
// junction capacitances to bulk.
//
// Node order: drain, gate, source, bulk. NMOS and PMOS share the code via
// a polarity flip; drain/source reversal is handled symmetrically.
#ifndef ACSTAB_SPICE_DEVICES_MOSFET_H
#define ACSTAB_SPICE_DEVICES_MOSFET_H

#include "spice/device.h"
#include "spice/devices/companion.h"

namespace acstab::spice {

enum class mos_polarity { nmos, pmos };

struct mosfet_model {
    mos_polarity polarity = mos_polarity::nmos;
    real vto = 0.7;     ///< threshold voltage [V] (positive for both types)
    real kp = 100e-6;   ///< transconductance parameter [A/V^2]
    real lambda = 0.02; ///< channel-length modulation [1/V]
    real gamma = 0.0;   ///< body-effect coefficient [sqrt(V)]
    real phi = 0.65;    ///< surface potential [V]
    real cox = 3.45e-3; ///< gate oxide capacitance per area [F/m^2]
    real cgso = 0.0;    ///< G-S overlap capacitance per width [F/m]
    real cgdo = 0.0;    ///< G-D overlap capacitance per width [F/m]
    real cbd = 0.0;     ///< drain-bulk junction capacitance [F] (constant)
    real cbs = 0.0;     ///< source-bulk junction capacitance [F] (constant)
};

/// Small-signal quantities at the operating point.
struct mosfet_small_signal {
    real id = 0.0;
    real gm = 0.0;
    real gds = 0.0;
    real gmb = 0.0;
    real cgs = 0.0;
    real cgd = 0.0;
    real cgb = 0.0;
    int region = 0; ///< 0 cutoff, 1 triode, 2 saturation
};

class mosfet final : public device {
public:
    mosfet(std::string name, node_id drain, node_id gate, node_id source, node_id bulk,
           mosfet_model model, real width, real length);

    [[nodiscard]] std::string_view type_name() const noexcept override { return "mosfet"; }
    [[nodiscard]] const mosfet_model& model() const noexcept { return model_; }
    [[nodiscard]] real width() const noexcept { return w_; }
    [[nodiscard]] real length() const noexcept { return l_; }

    void dc_begin() override;
    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

    void tran_begin(const std::vector<real>& op) override;
    void stamp_tran(const std::vector<real>& x, const tran_params& p,
                    system_builder<real>& b) override;
    void tran_accept(const std::vector<real>& x, const tran_params& p) override;

    [[nodiscard]] mosfet_small_signal small_signal(const std::vector<real>& op) const;

private:
    struct eval_result {
        real id = 0.0; ///< channel current drain->source, internal polarity
        real did_dvgs = 0.0;
        real did_dvds = 0.0;
        real did_dvbs = 0.0;
        real cgs = 0.0;
        real cgd = 0.0;
        real cgb = 0.0;
        int region = 0;
    };
    /// Channel current for vds >= 0 in internal polarity.
    [[nodiscard]] eval_result evaluate_forward(real vgs, real vds, real vbs) const noexcept;
    /// Full evaluation with drain/source reversal handling.
    [[nodiscard]] eval_result evaluate(real vgs, real vds, real vbs) const noexcept;

    mosfet_model model_;
    real w_;
    real l_;
    real vgs_state_ = 0.0; ///< previous Newton iterate (fetlim/limvds)
    real vds_state_ = 0.0;
    bool init_junctions_ = false; ///< MODEINITJCT armed by dc_begin
    companion_cap cap_gs_;
    companion_cap cap_gd_;
    companion_cap cap_gb_;
    companion_cap cap_db_;
    companion_cap cap_sb_;
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICES_MOSFET_H
