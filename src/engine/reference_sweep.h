// Validation baseline: the original per-frequency re-stamp AC sweep.
//
// This is the loop the sweep engine replaced — every device is re-stamped
// and the complex MNA system re-assembled and freshly factored at every
// frequency point, serially. It exists ONLY so tests and ablation benches
// can check the engine (linearize-once snapshot + pattern-reusing
// refactorization + threading) against the direct path (it is the
// pre-engine oracle of test_engine's engine_equivalence tests);
// production analyses must not call it.
#ifndef ACSTAB_ENGINE_REFERENCE_SWEEP_H
#define ACSTAB_ENGINE_REFERENCE_SWEEP_H

#include <vector>

#include "spice/ac_analysis.h"
#include "spice/circuit.h"

namespace acstab::engine {

/// Serial re-stamp-per-frequency AC sweep (the pre-engine algorithm).
[[nodiscard]] spice::ac_result reference_ac_sweep(spice::circuit& c,
                                                  const std::vector<real>& freqs_hz,
                                                  const std::vector<real>& op,
                                                  const spice::ac_options& opt = {});

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_REFERENCE_SWEEP_H
