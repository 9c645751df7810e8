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

#include "common/deadline.hpp"
#include "fermion/majorana.hpp"
#include "mapping/mapper.hpp"
#include "route/coupling_map.hpp"

namespace hatt::device {

/**
 * Run the candidate tournament for @p poly on @p device: the winner's
 * mapping and tree, with metrics.candidates the number scored and
 * counters["estimated_cost"] its tournament score (routed CNOTs).
 * InvalidArgument when the device is disconnected or smaller than the
 * mode count (checked up front, naming the device); Internal when
 * routing a candidate fails past that check.
 */
StatusOr<MappingResult>
buildTreespilationMapping(const MajoranaPolynomial &poly,
                          const CouplingMap &device,
                          const Deadline &deadline);

} // namespace hatt::device

#endif // HATT_DEVICE_TREESPILATION_HPP
