#ifndef HATT_MAPPING_MAPPING_HPP
#define HATT_MAPPING_MAPPING_HPP

/**
 * @file
 * The common fermion-to-qubit mapping representation: 2N Pauli terms, one
 * per Majorana operator M_0 .. M_{2N-1}, over N qubits. Every construction
 * in the library (JW, BK, balanced ternary tree, HATT, exhaustive search)
 * produces this type, and the qubit-Hamiltonian builder consumes it.
 */

#include <string>
#include <vector>

#include "pauli/pauli_sum.hpp"

namespace hatt {

class TernaryTree;

/** A fermion-to-qubit mapping: Majorana index -> phased Pauli string. */
struct FermionQubitMapping
{
    uint32_t numModes = 0;
    uint32_t numQubits = 0;
    std::string name; //!< e.g. "JW", "BK", "BTT", "HATT"

    /** majorana[i] represents M_i; size 2*numModes. */
    std::vector<PauliTerm> majorana;

    /** Pauli term for a_j = (M_2j + i M_2j+1)/2 (two-term sum). */
    std::vector<PauliTerm> annihilationOperator(uint32_t mode) const;

    /** Pauli term for a†_j = (M_2j - i M_2j+1)/2 (two-term sum). */
    std::vector<PauliTerm> creationOperator(uint32_t mode) const;
};

/** Identifier for the built-in mapping families. */
enum class MappingKind
{
    JordanWigner,
    BravyiKitaev,
    BalancedTernaryTree,
    Hatt,
    HattUnoptimized,
};

/** Human-readable name used in benchmark tables. */
std::string mappingKindName(MappingKind kind);

/**
 * Derive the mapping of a complete ternary tree: Majorana i -> the path
 * string of leaf @p leaf_of_majorana[i] (leaf i when the assignment is
 * empty, the natural order), with unit coefficient. Every tree-based
 * construction (HATT, BTT, Bonsai, Treespilation, the FH searches)
 * assembles its mapping here, and a serialized tree is re-mapped
 * through it without rerunning the optimization.
 */
FermionQubitMapping
mappingFromTree(const TernaryTree &tree, std::string name,
                const std::vector<int> &leaf_of_majorana = {});

} // namespace hatt

#endif // HATT_MAPPING_MAPPING_HPP
