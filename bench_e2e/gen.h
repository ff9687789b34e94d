// Seeded benchmark inputs.
//
// Every input the benchmark feeds the program is a pure function of the
// workload seed: an RC mesh from gen::rcmesh_netlist with per-element
// R/C jitter and K planted LC tanks, or a temperature grid for the farm
// campaign. The program itself only ever sees the generated netlist and
// plan files.
//
// A planted tank hangs off a mesh node through a coupling resistor:
//
//   mesh node --rt{k}-- t{k} --+-- lt{k} -- 0
//                              +-- ct{k} -- 0
//
// so t{k} is a parallel RLC node whose damping comes from the coupling
// resistor (plus the small mesh impedance behind it). Its designed
// natural frequency f0 = 1 / (2 pi sqrt(L C)) is what the correctness
// checks hold the analyses to.
#ifndef BENCH_E2E_GEN_H
#define BENCH_E2E_GEN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace bench {

using acstab::real;

/// splitmix64: a tiny deterministic generator whose output does not
/// depend on the standard library's distribution implementations.
class rng {
public:
    explicit rng(std::uint64_t seed) : state_(seed) { }
    std::uint64_t next();
    /// Uniform in [0, 1).
    real uniform();
    /// Uniform in [lo, hi).
    real uniform(real lo, real hi) { return lo + (hi - lo) * uniform(); }
    /// Uniform integer in [0, n).
    std::size_t index(std::size_t n);

private:
    std::uint64_t state_;
};

struct tank {
    std::string node;      ///< the tank's own node, t{k}
    std::string mesh_node; ///< the mesh node it hangs off
    real l_h = 0.0;
    real c_f = 0.0;
    real r_ohm = 0.0;      ///< coupling resistor
    real f0_hz = 0.0;      ///< 1 / (2 pi sqrt(L C)) of the emitted values
};

/// Every mesh R and C is scaled by 1 + 0.1 U(-1, 1); tank natural
/// frequencies are drawn log-stratified in [0.4, 4] MHz, well inside the
/// default 1 kHz .. 1 GHz sweep.
struct mesh_spec {
    std::size_t size = 1000; ///< mesh node target (gen::rcmesh_netlist rounds to k^2)
    std::size_t tanks = 1;
};

struct mesh_input {
    std::string netlist;
    std::vector<tank> tanks;
    std::size_t probe = 0;               ///< index into tanks of the probed tank
    std::vector<std::string> spot_nodes; ///< seeded mesh nodes for spot checks
};

/// Jittered RC mesh with planted tanks; deterministic per seed.
[[nodiscard]] mesh_input make_mesh(const mesh_spec& spec, std::uint64_t seed);

/// `count` distinct temperatures in [-40, 125] C, ascending: one seeded
/// draw inside each of `count` equal strata.
[[nodiscard]] std::vector<real> make_temperature_grid(std::size_t count, std::uint64_t seed);

} // namespace bench

#endif // BENCH_E2E_GEN_H
