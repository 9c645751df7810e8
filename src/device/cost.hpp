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
 *   -> optimizeCircuit -> route -> cancel
 * and reports the routed circuit's CNOT / U3 / depth counts plus the
 * SWAPs the router inserted. The last two stages are one streaming
 * walk: the router hands each physical gate to a RoutedCostSink, so
 * the routed circuit is never built. The counts equal routeCircuit ->
 * optimizeCircuit -> Circuit::basisCounts (tests/test_device.cpp keeps
 * that path as a reference). Every stage is deterministic, so the
 * numbers are bit-identical across thread counts and suitable for
 * byte-compared reports and committed bench baselines.
 *
 * The PauliSum overload starts from an already-mapped qubit Hamiltonian,
 * so a caller that also needs that Hamiltonian (the compile driver
 * emitting qubit.json) maps it once.

 */

#include <cstdint>

#include "circuit/optimize.hpp"
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
 * The routed-cost sink: swapWalk() hands it every physical gate. Each
 * CNOT is checked against the device, and every gate goes through
 * CancellationStacks, which keep the optimized routed circuit's CNOT
 * count, U3 run count and depth current without building it.
 */
class RoutedCostSink
{
  public:
    explicit RoutedCostSink(const CouplingMap &device)
        : device_(device), stacks_(device.numQubits())
    {
    }

    void operator()(const Gate &g)
    {
        if (g.isTwoQubit() && !device_.adjacent(g.q0, g.q1))
            uncoupled_ = true;
        stacks_.push(g);
    }

    /** Cost of the gates fed so far, with @p swaps SWAPs. Internal once
        any CNOT acted on an uncoupled pair: a cost this evaluator
        reports is for a circuit that is executable on the device. */
    StatusOr<HardwareCost> cost(uint64_t swaps) const;

  private:
    const CouplingMap &device_;
    CancellationStacks stacks_;
    bool uncoupled_ = false;
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

} // namespace hatt::device

#endif // HATT_DEVICE_COST_HPP
