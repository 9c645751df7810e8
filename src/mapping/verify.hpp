#ifndef HATT_MAPPING_VERIFY_HPP
#define HATT_MAPPING_VERIFY_HPP

/**
 * @file
 * Validity and property checks for fermion-to-qubit mappings:
 *  - algebraic validity: the 2N Majorana strings pairwise anticommute and
 *    are distinct (squares are automatically I for literal strings);
 *  - vacuum-state preservation: a_j |0...0> = 0 for all modes, checked
 *    symbolically (no state vectors needed, works at any N);
 *  - weight statistics for reporting.
 */

#include <string>

#include "mapping/mapper.hpp"
#include "mapping/mapping.hpp"

namespace hatt {

/** Outcome of verifyMapping, with a human-readable reason on failure. */
struct MappingCheck
{
    bool valid = false;
    std::string reason;
};

/** Check pairwise anticommutation and distinctness of all 2N Majoranas. */
MappingCheck verifyMapping(const FermionQubitMapping &map);

/**
 * Check vacuum preservation: for every mode j,
 * (M_2j + i M_2j+1)|0...0> must vanish, i.e. both strings flip the same
 * qubits and their phases on |0> differ by exactly -i ... +i interplay:
 * c_2j i^{k_2j} + i c_2j+1 i^{k_2j+1} = 0.
 */
bool preservesVacuum(const FermionQubitMapping &map);

/**
 * Registry-conformance check: does @p result honor the contract its
 * mapper declared? Verifies algebraic validity (verifyMapping), mode and
 * qubit-count consistency with the request, vacuum preservation whenever
 * the capabilities promise it, and — for tree-producing mappers — that
 * the returned tree is present and re-derives exactly the returned
 * Majorana strings, either in the natural leaf order (mappingFromTree)
 * or under the vacuum-pairing permutation (vacuumPairingAssignment, the
 * assembly the device-aware mappers ship).
 */
MappingCheck verifyMapperResult(const Mapper &mapper,
                                const MappingRequest &request,
                                const MappingResult &result);

/** Summed Pauli weight of the 2N Majorana strings themselves. */
uint64_t operatorPauliWeight(const FermionQubitMapping &map);

/** Average Pauli weight per Majorana string. */
double averageOperatorWeight(const FermionQubitMapping &map);

} // namespace hatt

#endif // HATT_MAPPING_VERIFY_HPP
