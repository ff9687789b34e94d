// Junction diode with depletion + diffusion capacitance.
#ifndef ACSTAB_SPICE_DEVICES_DIODE_H
#define ACSTAB_SPICE_DEVICES_DIODE_H

#include "spice/device.h"

namespace acstab::spice {

struct diode_model {
    real is = 1e-14;  ///< saturation current [A]
    real n = 1.0;     ///< emission coefficient
    real cj0 = 0.0;   ///< zero-bias junction capacitance [F]
    real vj = 1.0;    ///< junction potential [V]
    real m = 0.5;     ///< grading coefficient
    real fc = 0.5;    ///< forward-bias depletion threshold
    real tt = 0.0;    ///< transit time [s] (diffusion capacitance)
    real temp = 27.0; ///< device temperature [C]
};

class diode final : public device {
public:
    diode(std::string name, node_id anode, node_id cathode, diode_model model = {});

    [[nodiscard]] std::string_view type_name() const noexcept override { return "diode"; }
    [[nodiscard]] const diode_model& model() const noexcept { return model_; }

    void dc_begin() override;
    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

    void tran_begin(const std::vector<real>& op) override;
    void stamp_tran(const std::vector<real>& x, const tran_params& p,
                    system_builder<real>& b) override;
    void tran_accept(const std::vector<real>& x, const tran_params& p) override;

    /// Small-signal conductance at junction voltage v.
    [[nodiscard]] real conductance_at(real v) const noexcept;
    /// Total small-signal capacitance (depletion + diffusion) at v.
    [[nodiscard]] real capacitance_at(real v) const noexcept;

private:
    diode_model model_;
    real v_limit_state_ = 0.0; // previous Newton iterate (junction limiting)
    bool init_junction_ = false; // MODEINITJCT armed by dc_begin
    real v_prev_ = 0.0;        // accepted transient junction voltage
    real icap_prev_ = 0.0;     // accepted transient capacitor current
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICES_DIODE_H
