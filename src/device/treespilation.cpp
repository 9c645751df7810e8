#include "device/treespilation.hpp"

#include <utility>
#include <vector>

#include "device/bonsai.hpp"
#include "device/cost.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/hatt.hpp"

namespace hatt::device {

StatusOr<MappingResult>
buildTreespilationMapping(const MajoranaPolynomial &poly,
                          const CouplingMap &device,
                          const Deadline &deadline)
{
    const std::string device_name =
        device.name().empty() ? "unnamed" : device.name();
    const uint32_t num_modes = poly.numModes();
    if (device.numQubits() < num_modes)
        return Status::invalidArgument(
            "treespilation: device '" + device_name + "' has " +
            std::to_string(device.numQubits()) + " qubits, need " +
            std::to_string(num_modes));
    if (!device.connected())
        return Status::invalidArgument(
            "treespilation: device '" + device_name +
            "' is disconnected; routing-cost scoring needs a connected "
            "coupling graph");

    struct Candidate
    {
        TernaryTree tree;
        FermionQubitMapping mapping;
    };
    std::vector<Candidate> candidates;

    // Fixed candidate order = the deterministic tie-break order. Each
    // candidate keeps its construction's own (vacuum-preserving) leaf
    // assembly — HATT in particular pairs leaves during construction,
    // and re-deriving the pairing from the bare tree loses that.
    {
        HattResult hatt =
            buildHattMapping(poly, {HattAlgorithm::Cached, deadline});
        candidates.push_back({std::move(hatt.tree), std::move(hatt.mapping)});
    }
    if (StatusOr<BonsaiResult> bonsai = growBonsaiTree(num_modes, device);
        bonsai.ok()) {
        FermionQubitMapping map =
            mappingFromTree(bonsai->tree, "Treespilation",
                            vacuumPairingAssignment(bonsai->tree));
        candidates.push_back({std::move(bonsai->tree), std::move(map)});
    }
    candidates.push_back(
        {TernaryTree::balanced(num_modes),
         balancedTernaryTreeMapping(num_modes, BttAssignment::Paired)});

    MappingResult out;
    uint64_t best_cost = UINT64_MAX;
    for (Candidate &cand : candidates) {
        deadline.check();
        FermionQubitMapping map = std::move(cand.mapping);
        map.name = "Treespilation";
        // Score by the real routed pipeline: the tournament then picks
        // the candidate that actually wins on hardware CNOTs, not the
        // one a proxy guesses will. The device was vetted above, so a
        // failure here is Internal — a router bug, surfaced as is.
        StatusOr<HardwareCost> hw = evaluateHardwareCost(poly, map, device);
        if (!hw.ok())
            return hw.status();
        if (hw->cnots < best_cost) {
            best_cost = hw->cnots;
            out.mapping = std::move(map);
            out.tree = std::move(cand.tree);
        }
    }
    out.metrics.candidates = candidates.size();
    out.metrics.counters["estimated_cost"] = best_cost;
    return out;
}

} // namespace hatt::device
