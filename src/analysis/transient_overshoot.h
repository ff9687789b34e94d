// Baseline 2 (paper Fig. 2): "node pulsing" — apply a small step through a
// named source, run a transient, and measure the classic step-response
// figures of merit at an output node.
#ifndef ACSTAB_ANALYSIS_TRANSIENT_OVERSHOOT_H
#define ACSTAB_ANALYSIS_TRANSIENT_OVERSHOOT_H

#include <string>

#include "spice/circuit.h"
#include "spice/tran_analysis.h"

namespace acstab::analysis {

struct step_response_metrics {
    real initial_value = 0.0;
    real final_value = 0.0;
    real overshoot_pct = 0.0;
    real ringing_freq_hz = 0.0; ///< from zero crossings about the final value
    real settling_time_s = 0.0; ///< 2 % band
    spice::tran_result raw;     ///< full waveform record
};

struct step_options {
    real tstop = 0.0;     ///< 0 selects 40 / f_estimate when given, else error
    real dt = 0.0;        ///< 0 selects tstop / 4000
    spice::tran_options tran; ///< further transient knobs (tolerances, step control)
};

/// The step must already be encoded in the named source's waveform (e.g.
/// waveform_spec::make_step). Measures V(output_node).
[[nodiscard]] step_response_metrics measure_step_response(spice::circuit& c,
                                                          const std::string& output_node,
                                                          const step_options& opt);

} // namespace acstab::analysis

#endif // ACSTAB_ANALYSIS_TRANSIENT_OVERSHOOT_H
