#ifndef HATT_MAPPING_SEARCH_HPP
#define HATT_MAPPING_SEARCH_HPP

/**
 * @file
 * Search-based mapping baselines standing in for Fermihedral [25].
 *
 * Fermihedral finds Pauli-weight-optimal mappings with a SAT solver; no
 * SAT solver is available offline, so this module provides:
 *  - exhaustiveTreeSearch: exact minimum over ALL complete ternary trees
 *    and ALL leaf assignments (feasible for N <= 4). At these sizes the
 *    ternary-tree family contains weight-optimal mappings for the
 *    benchmarks we reproduce, mirroring "FH (optimal)" at small scale.
 *  - stochasticTreeSearch: seeded random-restart hill climbing over trees
 *    and assignments, mirroring "FH (approximate)" at medium scale.
 *
 * Both return plain FermionQubitMappings named "FH*".
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "common/deadline.hpp"
#include "fermion/majorana.hpp"
#include "mapping/mapping.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt {

/**
 * Incremental Pauli-weight evaluator for leaf-label swaps on a fixed tree.
 *
 * reset() performs one full path-counting evaluation and caches a 0/1
 * contribution per Hamiltonian term; proposeSwap(i, j) then re-scores only
 * the terms containing the Majorana labels currently at leaf positions i
 * or j (found through a label -> terms inverted index), so each candidate
 * swap costs O(touched terms * depth) instead of O(all terms * depth).
 * Results are exactly equal to a full re-evaluation — the hill-climbing
 * search built on top is bit-identical to the naive implementation.
 * The evaluator keeps views of @p poly's index arrays, so the polynomial
 * must outlive it.
 */
class DeltaWeightEvaluator
{
  public:
    DeltaWeightEvaluator(const TernaryTree &tree,
                         const MajoranaPolynomial &poly);
    ~DeltaWeightEvaluator();
    DeltaWeightEvaluator(const DeltaWeightEvaluator &) = delete;
    DeltaWeightEvaluator &operator=(const DeltaWeightEvaluator &) = delete;

    /**
     * Full evaluation of the assignment where leaf position p holds
     * Majorana label @p labels[p] (label 2N is the discarded string).
     * @return the total Pauli weight.
     */
    uint64_t reset(const std::vector<int> &labels);

    /** Weight if the labels at positions @p i and @p j were swapped. */
    uint64_t proposeSwap(uint32_t i, uint32_t j);

    /** Commit the swap from the immediately preceding proposeSwap(). */
    void acceptSwap();

    /** Current committed total weight. */
    uint64_t total() const;

  private:
    struct Impl;
    Impl *impl_;
};

/** Result of a mapping search. */
struct SearchResult
{
    FermionQubitMapping mapping;
    uint64_t weight = 0;     //!< qubit-Hamiltonian Pauli weight achieved
    uint64_t evaluated = 0;  //!< number of candidate mappings scored
};

/**
 * Pauli weight of @p poly under the mapping defined by @p tree with
 * Majorana i assigned to leaf @p leaf_of_majorana[i]. Computed by path
 * counting without materializing Pauli strings (fast inner loop).
 */
uint64_t treeAssignmentWeight(const TernaryTree &tree,
                              const std::vector<int> &leaf_of_majorana,
                              const MajoranaPolynomial &poly);

/**
 * Exact minimum over all complete ternary trees x leaf assignments.
 * Returns nullopt when poly.numModes() > max_modes (cost explodes as
 * (#trees) * (2N+1)!).
 *
 * The walk fans out shape-by-shape over the work pool and steps through
 * each shape's next_permutation sequence as DeltaWeightEvaluator position
 * swaps (pivot swap + suffix-reversal swaps), re-scoring only terms that
 * touch a moved label. Chunks fold in shape order with a strict <, so the
 * first-strict-minimum tie-break is bit-identical to the historical
 * serial scan for every HATT_THREADS value.
 *
 * @p deadline is polled every few thousand permutations inside the walk;
 * on expiry the search throws DeadlineExceededError from the calling
 * thread (worker chunks bail cooperatively first).
 */
std::optional<SearchResult>
exhaustiveTreeSearch(const MajoranaPolynomial &poly, uint32_t max_modes = 3,
                     const Deadline &deadline = {});

/**
 * Random-restart hill climbing: random complete trees with random leaf
 * assignments, improved by leaf-label swaps until no improving swap
 * exists, best of @p restarts restarts. Deterministic given @p seed.
 * @p deadline is polled per hill-climbing sweep, as in exhaustiveTreeSearch.
 */
SearchResult stochasticTreeSearch(const MajoranaPolynomial &poly,
                                  uint32_t restarts = 8,
                                  uint32_t max_sweeps = 30,
                                  uint64_t seed = 1234,
                                  const Deadline &deadline = {});

} // namespace hatt

#endif // HATT_MAPPING_SEARCH_HPP
