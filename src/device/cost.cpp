#include "device/cost.hpp"

#include <stdexcept>

#include "circuit/optimize.hpp"
#include "circuit/pauli_evolution.hpp"
#include "circuit/schedule.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "route/router.hpp"

namespace hatt::device {

StatusOr<HardwareCost>
evaluateHardwareCost(const PauliSum &hq, const CouplingMap &device)
{
    try {
        PauliSum ordered = scheduleTerms(hq, ScheduleKind::Lexicographic);
        Circuit c = evolutionCircuit(ordered);
        optimizeCircuit(c);
        RoutedCircuit routed = routeCircuit(c, device);
        optimizeCircuit(routed.circuit);
        // Every cost this evaluator reports is for a circuit that is
        // actually executable on the device — a 2q gate on an uncoupled
        // pair here is a router/optimizer bug, not an input error.
        if (!respectsCoupling(routed.circuit, device))
            return Status::internal(
                std::string("hardware cost on device '") +
                (device.name().empty() ? "unnamed" : device.name()) +
                "': routed circuit violates the coupling map");
        const GateCounts counts = routed.circuit.basisCounts();
        HardwareCost cost;
        cost.cnots = counts.cnot;
        cost.u3 = counts.u3;
        cost.depth = counts.depth;
        cost.swaps = routed.swapsInserted;
        return cost;
    } catch (const std::invalid_argument &e) {
        return Status::invalidArgument(
            std::string("hardware cost on device '") +
            (device.name().empty() ? "unnamed" : device.name()) + "': " +
            e.what());
    }
}

StatusOr<HardwareCost>
evaluateHardwareCost(const MajoranaPolynomial &poly,
                     const FermionQubitMapping &map,
                     const CouplingMap &device)
{
    return evaluateHardwareCost(mapToQubits(poly, map), device);
}

} // namespace hatt::device
