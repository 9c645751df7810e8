#ifndef HATT_DEVICE_COST_HPP
#define HATT_DEVICE_COST_HPP

/**
 * @file
 * Post-routing hardware cost of a mapping on a device — the metric the
 * paper's Table IV competes on, packaged for the compiler driver, the
 * treespilation scorer and the device benchmark.
 *
 * evaluateHardwareCost() runs the full deterministic pipeline
 *   mapToQubits -> scheduleTerms(Lexicographic) -> evolutionCircuit
 *   -> optimizeCircuit -> routeCircuit -> optimizeCircuit
 * and reports the routed circuit's CNOT / U3 / depth counts plus the
 * SWAPs the router inserted. Every stage is deterministic, so the
 * numbers are bit-identical across thread counts and suitable for
 * byte-compared reports and committed bench baselines.
 *
 * The PauliSum overload starts from an already-mapped qubit Hamiltonian,
 * so a caller that also needs that Hamiltonian (the compile driver
 * emitting qubit.json) maps it once.
 *
 * estimateRoutedCost() is the cheap stand-in treespilation uses to
 * score candidate trees without paying for full routing: it embeds the
 * mapped Hamiltonian's interaction graph with the router's own
 * degreeOrderedLayout and charges each two-qubit interaction
 * 3*(d-1)+1 CNOTs for hop distance d.
 */

#include <cstdint>

#include "fermion/majorana.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping.hpp"
#include "pauli/pauli_sum.hpp"
#include "route/coupling_map.hpp"

namespace hatt::device {

/** Routed-circuit cost on a device (all deterministic). */
struct HardwareCost
{
    uint64_t cnots = 0;  //!< CNOTs after routing + peephole optimization
    uint64_t u3 = 0;     //!< single-qubit gates after optimization
    uint64_t depth = 0;  //!< routed circuit depth
    uint64_t swaps = 0;  //!< SWAPs the router inserted
};

/**
 * Route one Trotter step of the qubit Hamiltonian @p hq onto @p device
 * and count gates. InvalidArgument when the device is too small or
 * disconnected (the router's preconditions, surfaced as Status).
 */
StatusOr<HardwareCost> evaluateHardwareCost(const PauliSum &hq,
                                            const CouplingMap &device);

/** evaluateHardwareCost(mapToQubits(poly, map), device). */
StatusOr<HardwareCost> evaluateHardwareCost(const MajoranaPolynomial &poly,
                                            const FermionQubitMapping &map,
                                            const CouplingMap &device);

/**
 * Cheap routed-cost estimate for candidate scoring: greedy interaction-
 * graph embedding plus per-interaction distance charges. Not comparable
 * to evaluateHardwareCost() numbers — only to other estimates on the
 * same (poly, device).
 */
uint64_t estimateRoutedCost(const MajoranaPolynomial &poly,
                            const FermionQubitMapping &map,
                            const CouplingMap &device);

} // namespace hatt::device

#endif // HATT_DEVICE_COST_HPP
