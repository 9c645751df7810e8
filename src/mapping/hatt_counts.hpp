#ifndef HATT_MAPPING_HATT_COUNTS_HPP
#define HATT_MAPPING_HATT_COUNTS_HPP

/**
 * @file
 * The reduced Hamiltonian with incremental occurrence counts — the data
 * engine behind buildHattMapping's candidate scans.
 *
 * The reduced Hamiltonian is a multiset of node supports over ids
 * 0 .. max_id-1 (leaves + internal nodes). Each support is an ascending
 * id span in one flat arena, an offset and a length per term (the
 * layout MajoranaPolynomial uses); equal supports are folded through a
 * hash set keyed by the span. The counts are kept incrementally:
 *
 *  - cnt1[id]: summed multiplicity of terms containing id;
 *  - pair counts, stored sparsely as per-id adjacency hash maps (memory
 *    O(nnz) instead of O(max_id^2)), every stored count strictly
 *    positive;
 *  - an id -> term inverted index, so a merge touches only the terms
 *    whose support holds a merged node.
 *
 * merge(a, b, c, parent) applies the seed's reduction rule: drop a/b/c
 * from each support holding one of them, append parent iff an odd
 * number were present, fold equal supports, drop emptied terms. A
 * support is compacted in place; parent is larger than every live id,
 * so appending it keeps the span sorted. The counts get only the
 * deltas of that rule: survivors keep their cnt1 and their pairs with
 * each other, gain a pair with parent from each odd term, and lose
 * their pairs with a, b and c, whose rows and cnt1 go to zero.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hatt::detail {

/** splitmix64 finalizer; the support hash chains it across ids. */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Term multiset over sorted id spans with incremental counts. */
class TermCounts
{
  public:
    explicit TermCounts(uint32_t max_id);
    // The dedup set's hasher and comparator point back at this object.
    TermCounts(const TermCounts &) = delete;
    TermCounts &operator=(const TermCounts &) = delete;

    /** Add one initial term (ascending ids); call before finalize(). */
    void addTerm(std::span<const uint32_t> support, int64_t mult = 1);

    /** Build cnt1 / pair adjacency / inverted index from the terms. */
    void finalize();

    /**
     * Merge nodes (a, b, c) into @p parent, updating counts by deltas.
     * Returns @p parent and the surviving ids whose adjacency row
     * changed: every other id of a support that held a, b or c (it
     * loses that pair). count1 of a surviving id never changes, since
     * every term keeps its other ids and its multiplicity. The list is
     * valid until the next merge().
     */
    const std::vector<int> &merge(int a, int b, int c, int parent);

    /** Summed multiplicity of live terms containing @p id. */
    int64_t count1(int id) const { return cnt1_[id]; }

    /** Summed multiplicity of live terms containing both ids (0 if none). */
    int64_t pairCount(int a, int b) const;

    /** Seed formula: Hamiltonian weight settled on the new qubit. */
    int64_t
    tripleWeight(int a, int b, int c) const
    {
        return cnt1_[a] + cnt1_[b] + cnt1_[c] - pairCount(a, b) -
               pairCount(a, c) - pairCount(b, c);
    }

    /** Sparse nonzero pair counts of @p id (every stored count > 0). */
    const std::unordered_map<int, int64_t> &
    adjacency(int id) const
    {
        return adj_[id];
    }

    /** Sorted (support, mult) snapshot, for tests and debugging. */
    std::vector<std::pair<std::vector<int>, int64_t>> snapshot() const;

  private:
    std::span<const int>
    support(uint32_t term) const
    {
        return {ids_.data() + off_[term], len_[term]};
    }

    void adjAdd(int a, int b, int64_t mult);

    /**
     * Dedup-insert the support already written at term slot @p term:
     * either keeps it (returns true) or folds its @p mult into an equal
     * live term and kills the slot (returns false).
     */
    bool dedupInsert(uint32_t term, int64_t mult);

    // Not noexcept, so the set caches each node's hash and growing it
    // never walks a support again.
    struct SupportHash
    {
        const TermCounts *owner;
        size_t operator()(uint32_t t) const;
    };
    struct SupportEq
    {
        const TermCounts *owner;
        bool operator()(uint32_t a, uint32_t b) const;
    };

    std::vector<int> ids_;      //!< supports: term t is ids_[off_[t], +len_[t])
    std::vector<size_t> off_;   //!< per-term span offset into ids_
    std::vector<uint32_t> len_; //!< per-term span length
    std::vector<int64_t> mult_; //!< per-term multiplicity; 0 = dead

    std::unordered_set<uint32_t, SupportHash, SupportEq> dedup_;

    std::vector<int64_t> cnt1_;
    std::vector<std::unordered_map<int, int64_t>> adj_;
    std::vector<std::vector<uint32_t>> inv_; //!< id -> term ids (lazy)

    uint32_t stamp_ = 0;
    std::vector<uint32_t> changed_stamp_; //!< per-id stamp for changed_
    std::vector<int> changed_;
};

} // namespace hatt::detail

#endif // HATT_MAPPING_HATT_COUNTS_HPP
