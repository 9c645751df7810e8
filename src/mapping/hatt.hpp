#ifndef HATT_MAPPING_HATT_HPP
#define HATT_MAPPING_HATT_HPP

/**
 * @file
 * The Hamiltonian-Adaptive Ternary Tree construction — the paper's core
 * contribution (Sec. III-C, IV).
 *
 * Bottom-up greedy construction: start from the 2N+1 leaves, and in step i
 * pick three parentless nodes to become the X/Y/Z children of a new
 * internal node carrying qubit i, chosen to minimize the Hamiltonian's
 * Pauli weight on that qubit. The reduced Hamiltonian is maintained as a
 * multiset of node-support sets; a candidate triple's weight on qubit i is
 *
 *     cnt1[a] + cnt1[b] + cnt1[c] - cnt2[a,b] - cnt2[a,c] - cnt2[b,c]
 *
 * (terms containing exactly one or two of the three nodes produce a
 * non-identity operator; zero or all three produce identity), so every
 * candidate is O(1) after per-step counting.
 *
 * Three variants, selected by HattOptions::algorithm (HattAlgorithm).
 */

#include <cstdint>
#include <vector>

#include "fermion/majorana.hpp"
#include "common/deadline.hpp"
#include "mapping/mapping.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt {

/** The paper's three construction algorithms. */
enum class HattAlgorithm
{
    /** Algorithm 1: free triple selection, O(N^4); does not guarantee
        vacuum-state preservation ("HATT (unopt)"). */
    Unpaired,
    /** Algorithm 2: only (OX, OZ) are free; OY is forced by the
        Z-descendant pairing rule, so every Majorana pair (M_2l, M_2l+1)
        shares an (X,Y) on one qubit — vacuum preserving. Z-descendants
        are found by walking the tree. */
    Walked,
    /** Algorithm 3: Algorithm 2's output with O(1) descZ / traverse-up
        maps, O(N^3) total. */
    Cached,
};

/** Options of the HATT construction. */
struct HattOptions
{
    HattAlgorithm algorithm = HattAlgorithm::Cached;
    /** Run budget, polled at Algorithm 1's candidate-scan chunk
        boundaries and checked (throwing DeadlineExceededError) at
        every step boundary on the calling thread. */
    Deadline deadline = {};
};

/** Construction statistics, used by the scalability experiments. */
struct HattStats
{
    std::vector<uint64_t> stepWeights; //!< settled weight per qubit
    uint64_t predictedWeight = 0;      //!< sum of stepWeights
    uint64_t candidatesEvaluated = 0;
    double seconds = 0.0;
};

/** Output of the HATT construction. */
struct HattResult
{
    FermionQubitMapping mapping;
    TernaryTree tree;
    HattStats stats;
};

/**
 * Compile a Hamiltonian-adaptive ternary tree mapping for @p poly.
 *
 * @param poly  preprocessed Majorana polynomial (see MajoranaPolynomial).
 * @param options algorithm variant selection.
 */
HattResult buildHattMapping(const MajoranaPolynomial &poly,
                            const HattOptions &options = {});

} // namespace hatt

#endif // HATT_MAPPING_HATT_HPP
