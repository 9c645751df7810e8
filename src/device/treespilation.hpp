#ifndef HATT_DEVICE_TREESPILATION_HPP
#define HATT_DEVICE_TREESPILATION_HPP

/**
 * @file
 * Treespilation (arXiv 2403.03992): architecture-optimised ternary-tree
 * selection. Rather than committing to one tree-construction heuristic,
 * build a small candidate portfolio — the Hamiltonian-adaptive HATT
 * tree, the device-grown Bonsai tree, and the balanced BTT tree — each
 * with its own construction's vacuum-preserving leaf assembly, score
 * each by its routed CNOT cost on the target device (the full schedule
 * + route + optimize pipeline), and keep the argmin (deterministic
 * tie-break: earlier candidate wins).
 */

#include <cstdint>
#include <string>

#include "common/deadline.hpp"
#include "fermion/majorana.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping.hpp"
#include "route/coupling_map.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt::device {

/** The winning candidate plus selection provenance. */
struct TreespilationResult
{
    FermionQubitMapping mapping;
    TernaryTree tree;
    uint64_t candidatesEvaluated = 0;
    uint64_t estimatedCost = 0;  //!< the winner's tournament score
                                 //!< (routed CNOTs)
    std::string chosen;          //!< "hatt" | "bonsai" | "btt"
};

/**
 * Run the candidate tournament for @p poly on @p device.
 * InvalidArgument when the device is disconnected or smaller than the
 * mode count (checked up front, naming the device); Internal when
 * routing a candidate fails past that check.
 */
StatusOr<TreespilationResult>
buildTreespilationMapping(const MajoranaPolynomial &poly,
                          const CouplingMap &device,
                          const Deadline &deadline);

} // namespace hatt::device

#endif // HATT_DEVICE_TREESPILATION_HPP
