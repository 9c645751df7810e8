#include "device/cost.hpp"

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

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

uint64_t
estimateRoutedCost(const MajoranaPolynomial &poly,
                   const FermionQubitMapping &map,
                   const CouplingMap &device)
{
    const PauliSum hq = mapToQubits(poly, map);
    const uint32_t nl = hq.numQubits();
    if (nl > device.numQubits())
        return UINT64_MAX;

    // Interaction multigraph: one two-qubit interaction per adjacent
    // pair of a term's (sorted) support, the shape the CNOT ladder of
    // evolutionCircuit produces.
    std::map<std::pair<int, int>, uint64_t> pair_counts;
    std::vector<uint64_t> degree(nl, 0);
    std::vector<int> support;
    for (const PauliTerm &term : hq.terms()) {
        support.clear();
        for (uint32_t q = 0; q < nl; ++q)
            if (term.string.op(q) != PauliOp::I)
                support.push_back(static_cast<int>(q));
        for (size_t i = 0; i + 1 < support.size(); ++i) {
            ++pair_counts[{support[i], support[i + 1]}];
            ++degree[support[i]];
            ++degree[support[i + 1]];
        }
    }

    // The router's own placement rule over the same interaction degrees.
    const std::vector<int> layout = degreeOrderedLayout(degree, device);

    // Each interaction at hop distance d costs ~3*(d-1) SWAP CNOTs
    // plus the entangling CNOT itself.
    uint64_t cost = 0;
    for (const auto &[pair, count] : pair_counts) {
        const int d = device.distance(layout[pair.first],
                                      layout[pair.second]);
        cost += count * (3ull * static_cast<uint64_t>(d - 1) + 1ull);
    }
    return cost;
}

} // namespace hatt::device
