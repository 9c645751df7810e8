#include "device/cost.hpp"

#include <stdexcept>

#include "circuit/optimize.hpp"
#include "circuit/pauli_evolution.hpp"
#include "circuit/schedule.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "route/router.hpp"

namespace hatt::device {

namespace {

std::string
deviceLabel(const CouplingMap &device)
{
    return "hardware cost on device '" +
           (device.name().empty() ? std::string("unnamed") : device.name()) +
           "': ";
}

} // namespace

StatusOr<HardwareCost>
RoutedCostSink::cost(uint64_t swaps) const
{
    // A 2q gate on an uncoupled pair is a router bug, not an input error.
    if (uncoupled_)
        return Status::internal(deviceLabel(device_) +
                                "routed circuit violates the coupling map");
    const GateCounts counts = stacks_.counts();
    HardwareCost cost;
    cost.cnots = counts.cnot;
    cost.u3 = counts.u3;
    cost.depth = counts.depth;
    cost.swaps = swaps;
    return cost;
}

StatusOr<HardwareCost>
evaluateHardwareCost(const PauliSum &hq, const CouplingMap &device)
{
    try {
        Circuit c =
            evolutionCircuit(scheduleTerms(hq, ScheduleKind::Lexicographic));
        optimizeCircuit(c);
        std::vector<int> layout = greedyLayout(c, device);
        RoutedCostSink sink(device);
        const uint64_t swaps = swapWalk(c, device, layout, sink);
        return sink.cost(swaps);
    } catch (const std::invalid_argument &e) {
        return Status::invalidArgument(deviceLabel(device) + e.what());
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
