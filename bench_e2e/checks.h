// Per-iteration correctness checks of the benchmark workloads.
//
// Each check returns an empty string on success and a one-line reason on
// failure; the workloads count a non-empty result as a failed operation.
// They are pure functions of a result and its expectation, so the
// self-test can feed them deliberately corrupted results.
#ifndef BENCH_E2E_CHECKS_H
#define BENCH_E2E_CHECKS_H

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/tran_stability.h"
#include "gen.h"

namespace bench {

/// A planted loop's reported natural frequency may sit this far (relative)
/// from its designed f0: the mesh behind the coupling resistor loads the
/// tank slightly, and the grid resolves f0 to a few percent.
inline constexpr real ac_freq_tol = 0.10;
/// The step response rings at the damped frequency under the same load.
inline constexpr real tran_freq_tol = 0.15;
/// The repository's solver-path equivalence bound: max |a - b| over a
/// record, relative to the record's largest magnitude.
inline constexpr real equivalence_tol = 1e-12;

/// The node shows its tank: a pole peak near f0 with an underdamped verdict.
[[nodiscard]] std::string check_planted_loop(const acstab::core::node_stability& ns,
                                             const tank& t);

/// max |got - want| <= equivalence_tol * max(scale_floor, max |want|).
[[nodiscard]] std::string check_equivalent(std::span<const real> got,
                                           std::span<const real> want, real scale_floor,
                                           const std::string& what);

/// Named driving-point magnitude records of an oracle.
using magnitude_oracle = std::vector<std::pair<std::string, std::vector<real>>>;

/// All-nodes report: every tank node carries its planted loop and is a
/// member of a loop group; every oracle node's magnitudes match.
[[nodiscard]] std::string check_all_nodes(const acstab::core::stability_report& report,
                                          const std::vector<tank>& tanks,
                                          const magnitude_oracle& oracle);

/// Step response of a tank node: finite, decaying ring near f0, zeta < 1.
[[nodiscard]] std::string check_tran_loop(const acstab::core::tran_stability_result& r,
                                          const tank& t);

/// Same time points and waveform within the equivalence bound (scale
/// floored at 1, as the repository's transient equivalence test does).
[[nodiscard]] std::string check_tran_equivalent(const acstab::core::tran_stability_result& got,
                                                const acstab::core::tran_stability_result& want);

/// Byte-identical files.
[[nodiscard]] std::string check_same_bytes(const std::string& path,
                                           const std::string& truth_path);

} // namespace bench

#endif // BENCH_E2E_CHECKS_H
