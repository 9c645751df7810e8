#include "mapping/search.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <memory>
#include <numeric>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace hatt {

namespace {

/** Per-leaf path to the root: (internal node id, branch) pairs. */
std::vector<std::vector<std::pair<int, int>>>
leafPaths(const TernaryTree &tree)
{
    std::vector<std::vector<std::pair<int, int>>> paths(tree.numLeaves());
    for (uint32_t l = 0; l < tree.numLeaves(); ++l) {
        int id = static_cast<int>(l);
        while (tree.node(id).parent != -1) {
            int p = tree.node(id).parent;
            const TreeNode &pn = tree.node(p);
            int branch = pn.child[BranchX] == id   ? BranchX
                         : pn.child[BranchY] == id ? BranchY
                                                   : BranchZ;
            paths[l].emplace_back(p, branch);
            id = p;
        }
    }
    return paths;
}

/** Full weight evaluator reusing precomputed paths; scratch reused. */
class WeightEvaluator
{
  public:
    WeightEvaluator(const TernaryTree &tree, const MajoranaPolynomial &poly)
        : paths_(leafPaths(tree)), poly_(poly),
          counts_(tree.numNodes(), {0, 0, 0})
    {
    }

    uint64_t
    evaluate(const std::vector<int> &leaf_of_majorana)
    {
        uint64_t total = 0;
        for (const auto &term : poly_.terms()) {
            if (term.indices.empty())
                continue;
            touched_.clear();
            for (uint32_t mi : term.indices) {
                int leaf = leaf_of_majorana[mi];
                for (auto [node, branch] : paths_[leaf]) {
                    if (counts_[node][0] == 0 && counts_[node][1] == 0 &&
                        counts_[node][2] == 0)
                        touched_.push_back(node);
                    counts_[node][branch] ^= 1;
                }
            }
            for (int node : touched_) {
                auto &c = counts_[node];
                // Product X^a Y^b Z^c is identity iff a == b == c.
                if (!(c[0] == c[1] && c[1] == c[2]))
                    ++total;
                c = {0, 0, 0};
            }
        }
        return total;
    }

  private:
    std::vector<std::vector<std::pair<int, int>>> paths_;
    const MajoranaPolynomial &poly_;
    std::vector<std::array<uint8_t, 3>> counts_;
    std::vector<int> touched_;
};

/** Recursively enumerate complete ternary tree shapes with n internals. */
struct Shape
{
    // children[b] == nullptr means leaf.
    std::array<const Shape *, 3> children{nullptr, nullptr, nullptr};
    bool leaf = true;
};

class ShapeEnumerator
{
  public:
    const std::vector<const Shape *> &
    shapes(uint32_t n)
    {
        if (cache_.size() > n && !cache_[n].empty())
            return cache_[n];
        if (cache_.size() <= n)
            cache_.resize(n + 1);
        if (n == 0) {
            cache_[0] = {makeLeaf()};
            return cache_[0];
        }
        std::vector<const Shape *> out;
        for (uint32_t a = 0; a < n; ++a) {
            for (uint32_t b = 0; a + b < n; ++b) {
                uint32_t c = n - 1 - a - b;
                for (const Shape *sa : shapes(a))
                    for (const Shape *sb : shapes(b))
                        for (const Shape *sc : shapes(c))
                            out.push_back(makeNode(sa, sb, sc));
            }
        }
        cache_[n] = std::move(out);
        return cache_[n];
    }

  private:
    const Shape *
    makeLeaf()
    {
        pool_.push_back(std::make_unique<Shape>());
        return pool_.back().get();
    }

    const Shape *
    makeNode(const Shape *a, const Shape *b, const Shape *c)
    {
        auto s = std::make_unique<Shape>();
        s->leaf = false;
        s->children = {a, b, c};
        pool_.push_back(std::move(s));
        return pool_.back().get();
    }

    std::vector<std::unique_ptr<Shape>> pool_;
    std::vector<std::vector<const Shape *>> cache_;
};

/** Instantiate a shape as a TernaryTree; leaves in DFS (X,Y,Z) order. */
TernaryTree
buildTreeFromShape(const Shape *shape, uint32_t num_modes)
{
    TernaryTree tree(num_modes);
    int next_leaf = 0;
    int next_qubit = 0;
    // Returns node id of the subtree root; leaves take ids 0..2N in DFS
    // order, internal nodes are appended bottom-up via addInternal.
    std::function<int(const Shape *)> build =
        [&](const Shape *s) -> int {
        if (s->leaf)
            return next_leaf++;
        int x = build(s->children[0]);
        int y = build(s->children[1]);
        int z = build(s->children[2]);
        return tree.addInternal(next_qubit++, x, y, z);
    };
    build(shape);
    return tree;
}

/** Random complete tree via random bottom-up merges. */
TernaryTree
randomTree(uint32_t num_modes, Rng &rng)
{
    TernaryTree tree(num_modes);
    std::vector<int> active(2 * num_modes + 1);
    std::iota(active.begin(), active.end(), 0);
    int qubit = 0;
    while (active.size() > 1) {
        std::array<int, 3> picked;
        for (int k = 0; k < 3; ++k) {
            size_t idx = rng.nextInt(active.size());
            picked[k] = active[idx];
            // Order is irrelevant under a uniform pick: swap-with-back
            // keeps removal O(1) instead of the O(n) middle erase.
            active[idx] = active.back();
            active.pop_back();
        }
        active.push_back(
            tree.addInternal(qubit++, picked[0], picked[1], picked[2]));
    }
    return tree;
}

} // namespace

// ------------------------------------------------------ DeltaWeightEvaluator

struct DeltaWeightEvaluator::Impl
{
    std::vector<std::vector<std::pair<int, int>>> paths;
    std::vector<std::span<const uint32_t>> terms; //!< non-empty terms only
    std::vector<std::vector<uint32_t>> inv;  //!< majorana -> term ids
    uint32_t num_majoranas = 0;

    std::vector<int> labels; //!< leaf position -> label (2N = discard)
    std::vector<int> assign; //!< label -> leaf position (labels < 2N)

    std::vector<uint32_t> contrib; //!< committed per-term Pauli weight
    uint64_t total = 0;

    // Scratch for term evaluation (seed's path-counting loop).
    std::vector<std::array<uint8_t, 3>> counts;
    std::vector<int> touched_nodes;

    // Term-dedup stamps + pending proposal.
    std::vector<uint32_t> stamp;
    uint32_t epoch = 0;
    uint32_t prop_i = 0, prop_j = 0;
    uint64_t prop_total = 0;
    bool prop_valid = false;
    std::vector<uint32_t> prop_terms;
    std::vector<uint32_t> prop_contrib;

    /**
     * Pauli weight of term @p t (count of qubits whose X/Y/Z path parities
     * multiply to a non-identity) with labels a/b rerouted to pos_a/pos_b.
     */
    uint32_t
    evalTerm(uint32_t t, int a, int pos_a, int b, int pos_b)
    {
        touched_nodes.clear();
        for (uint32_t mi : terms[t]) {
            int leaf = static_cast<int>(mi) == a   ? pos_a
                       : static_cast<int>(mi) == b ? pos_b
                                                   : assign[mi];
            for (auto [node, branch] : paths[leaf]) {
                auto &c = counts[node];
                if (c[0] == 0 && c[1] == 0 && c[2] == 0)
                    touched_nodes.push_back(node);
                c[branch] ^= 1;
            }
        }
        uint32_t out = 0;
        for (int node : touched_nodes) {
            auto &c = counts[node];
            if (!(c[0] == c[1] && c[1] == c[2]))
                ++out;
            c = {0, 0, 0};
        }
        return out;
    }
};

DeltaWeightEvaluator::DeltaWeightEvaluator(const TernaryTree &tree,
                                           const MajoranaPolynomial &poly)
    : impl_(new Impl)
{
    impl_->paths = leafPaths(tree);
    impl_->num_majoranas = poly.numMajoranas();
    impl_->inv.resize(impl_->num_majoranas);
    for (const auto &term : poly.terms()) {
        if (term.indices.empty())
            continue;
        const uint32_t t = static_cast<uint32_t>(impl_->terms.size());
        impl_->terms.push_back(term.indices);
        for (uint32_t mi : term.indices)
            impl_->inv[mi].push_back(t);
    }
    impl_->counts.assign(tree.numNodes(), {0, 0, 0});
    impl_->contrib.assign(impl_->terms.size(), 0);
    impl_->stamp.assign(impl_->terms.size(), 0);
}

DeltaWeightEvaluator::~DeltaWeightEvaluator() { delete impl_; }

uint64_t
DeltaWeightEvaluator::reset(const std::vector<int> &labels)
{
    Impl &im = *impl_;
    im.labels = labels;
    im.assign.assign(im.num_majoranas, -1);
    for (size_t pos = 0; pos < labels.size(); ++pos)
        if (labels[pos] >= 0 &&
            labels[pos] < static_cast<int>(im.num_majoranas))
            im.assign[labels[pos]] = static_cast<int>(pos);
    im.total = 0;
    for (uint32_t t = 0; t < im.terms.size(); ++t) {
        im.contrib[t] = im.evalTerm(t, -1, -1, -1, -1);
        im.total += im.contrib[t];
    }
    im.prop_valid = false;
    return im.total;
}

uint64_t
DeltaWeightEvaluator::proposeSwap(uint32_t i, uint32_t j)
{
    Impl &im = *impl_;
    const int a = im.labels[i];
    const int b = im.labels[j];
    ++im.epoch;
    im.prop_terms.clear();
    im.prop_contrib.clear();
    int64_t delta = 0;
    auto visit = [&](int label) {
        if (label < 0 || label >= static_cast<int>(im.num_majoranas))
            return; // the discarded label sits in no term
        for (uint32_t t : im.inv[label]) {
            if (im.stamp[t] == im.epoch)
                continue;
            im.stamp[t] = im.epoch;
            // After the swap, label a sits at position j and b at i.
            uint32_t now = im.evalTerm(t, a, static_cast<int>(j), b,
                                       static_cast<int>(i));
            im.prop_terms.push_back(t);
            im.prop_contrib.push_back(now);
            delta += static_cast<int64_t>(now) -
                     static_cast<int64_t>(im.contrib[t]);
        }
    };
    visit(a);
    visit(b);
    im.prop_i = i;
    im.prop_j = j;
    im.prop_total = static_cast<uint64_t>(
        static_cast<int64_t>(im.total) + delta);
    im.prop_valid = true;
    return im.prop_total;
}

void
DeltaWeightEvaluator::acceptSwap()
{
    Impl &im = *impl_;
    assert(im.prop_valid);
    for (size_t k = 0; k < im.prop_terms.size(); ++k)
        im.contrib[im.prop_terms[k]] = im.prop_contrib[k];
    im.total = im.prop_total;
    std::swap(im.labels[im.prop_i], im.labels[im.prop_j]);
    const int a = im.labels[im.prop_i];
    const int b = im.labels[im.prop_j];
    if (a >= 0 && a < static_cast<int>(im.num_majoranas))
        im.assign[a] = static_cast<int>(im.prop_i);
    if (b >= 0 && b < static_cast<int>(im.num_majoranas))
        im.assign[b] = static_cast<int>(im.prop_j);
    im.prop_valid = false;
}

uint64_t
DeltaWeightEvaluator::total() const
{
    return impl_->total;
}

// ------------------------------------------------------------------ search

uint64_t
treeAssignmentWeight(const TernaryTree &tree,
                     const std::vector<int> &leaf_of_majorana,
                     const MajoranaPolynomial &poly)
{
    WeightEvaluator eval(tree, poly);
    return eval.evaluate(leaf_of_majorana);
}

namespace {

/**
 * Advance @p perm to its lexicographic successor, mirroring every element
 * move into @p eval as accepted position swaps so the returned weight is
 * the successor's total. std::next_permutation is pivot-swap + suffix
 * reversal — both are position-swap sequences, so DeltaWeightEvaluator
 * re-scores only terms touching the moved labels instead of the full
 * polynomial. @return false (perm untouched) at the last permutation.
 */
bool
nextPermutationBySwaps(std::vector<int> &perm, DeltaWeightEvaluator &eval,
                       uint64_t &weight)
{
    const size_t n = perm.size();
    size_t i = n - 1;
    while (i > 0 && perm[i - 1] >= perm[i])
        --i;
    if (i == 0)
        return false; // fully descending: last permutation
    --i; // pivot
    size_t j = n - 1;
    while (perm[j] <= perm[i])
        --j;
    auto swapAt = [&](size_t a, size_t b) {
        weight = eval.proposeSwap(static_cast<uint32_t>(a),
                                  static_cast<uint32_t>(b));
        eval.acceptSwap();
        std::swap(perm[a], perm[b]);
    };
    swapAt(i, j);
    for (size_t lo = i + 1, hi = n - 1; lo < hi; ++lo, --hi)
        swapAt(lo, hi);
    return true;
}

} // namespace

std::optional<SearchResult>
exhaustiveTreeSearch(const MajoranaPolynomial &poly, uint32_t max_modes,
                     const Deadline &deadline)
{
    const uint32_t n = poly.numModes();
    if (n == 0 || n > max_modes)
        return std::nullopt;
    deadline.check();
    trace::Span span("mapping", "exhaustive_search");

    const uint32_t num_leaves = 2 * n + 1;

    // Enumerate shapes up front (the memoizing enumerator is not thread
    // safe); the scan then fans out one chunk per shape. Chunks fold in
    // chunk index order and the serial scan order is (shape, permutation)
    // lexicographic, so the strict < below keeps the FIRST strict minimum
    // of the whole walk — bit-exact with the historical serial search for
    // every thread count.
    ShapeEnumerator enumerator;
    const std::vector<const Shape *> &shapes = enumerator.shapes(n);

    struct ShapeBest
    {
        uint64_t weight = UINT64_MAX;
        size_t shape = SIZE_MAX;         //!< shape ordinal of the minimum
        std::vector<int> labels;         //!< perm snapshot at the minimum
        uint64_t evaluated = 0;
    };

    ShapeBest best = parallelReduceChunks(
        shapes.size(), 1, ShapeBest{},
        [&](size_t lo, size_t hi) {
            ShapeBest out;
            for (size_t si = lo; si < hi; ++si) {
                // Cooperative budget poll: bail without throwing (this
                // may run on a pool worker); the caller-thread check()
                // below turns the expiry into the typed exception and
                // discards every partial result.
                if (deadline.expired())
                    break;
                TernaryTree tree = buildTreeFromShape(shapes[si], n);
                DeltaWeightEvaluator eval(tree, poly);
                // Permute which leaf carries each of the 2N+1 labels;
                // label 2N is the discarded string. perm[pos] = label.
                std::vector<int> perm(num_leaves);
                std::iota(perm.begin(), perm.end(), 0);
                uint64_t w = eval.reset(perm);
                bool expired = false;
                do {
                    ++out.evaluated;
                    if (w < out.weight) {
                        out.weight = w;
                        out.shape = si;
                        out.labels = perm;
                    }
                    if ((out.evaluated & 0xFFFu) == 0 &&
                        deadline.expired()) {
                        expired = true;
                        break;
                    }
                } while (nextPermutationBySwaps(perm, eval, w));
                if (expired)
                    break;
            }
            return out;
        },
        [](ShapeBest acc, ShapeBest part) {
            // Chunk order == shape order: strict < keeps the earliest.
            if (part.weight < acc.weight) {
                part.evaluated += acc.evaluated;
                return part;
            }
            acc.evaluated += part.evaluated;
            return acc;
        });

    // Expiry is monotonic, so if any chunk bailed this throws and the
    // (possibly incomplete) fold above is never used.
    deadline.check();

    TernaryTree best_tree = buildTreeFromShape(shapes[best.shape], n);
    std::vector<int> assign(num_leaves);
    for (uint32_t pos = 0; pos < num_leaves; ++pos)
        assign[best.labels[pos]] = static_cast<int>(pos);
    assign.resize(2 * n);

    SearchResult res;
    res.mapping = mappingFromTree(best_tree, "FH*", assign);
    res.weight = best.weight;
    res.evaluated = best.evaluated;
    metrics::add("search.candidates", res.evaluated);
    return res;
}

SearchResult
stochasticTreeSearch(const MajoranaPolynomial &poly, uint32_t restarts,
                     uint32_t max_sweeps, uint64_t seed,
                     const Deadline &deadline)
{
    const uint32_t n = poly.numModes();
    deadline.check();
    trace::Span span("mapping", "stochastic_search");
    Rng rng(seed);
    const uint32_t num_leaves = 2 * n + 1;

    // Generate every restart's starting point from the single seeded
    // stream first, so the parallel hill climbs below consume no shared
    // randomness and the result is identical for every thread count.
    struct Restart
    {
        TernaryTree tree;
        std::vector<int> labels; //!< labels[pos] = label (2N = discard)
        uint64_t weight = UINT64_MAX;
        uint64_t evaluated = 0;
    };
    std::vector<Restart> runs(restarts);
    for (uint32_t r = 0; r < restarts; ++r) {
        runs[r].tree = randomTree(n, rng);
        runs[r].labels.resize(num_leaves);
        std::iota(runs[r].labels.begin(), runs[r].labels.end(), 0);
        std::shuffle(runs[r].labels.begin(), runs[r].labels.end(),
                     rng.engine());
    }

    // Hill-climb every restart independently (embarrassingly parallel).
    parallelFor(restarts, 1, [&](size_t r) {
        Restart &run = runs[r];
        DeltaWeightEvaluator eval(run.tree, poly);
        uint64_t cur = eval.reset(run.labels);
        run.evaluated = 1;
        for (uint32_t sweep = 0; sweep < max_sweeps; ++sweep) {
            // Worker-safe budget poll once per sweep; the caller-thread
            // check() after the parallelFor surfaces the expiry.
            if (deadline.expired())
                break;
            bool improved = false;
            for (uint32_t i = 0; i < num_leaves; ++i) {
                for (uint32_t j = i + 1; j < num_leaves; ++j) {
                    uint64_t w = eval.proposeSwap(i, j);
                    ++run.evaluated;
                    if (w < cur) {
                        cur = w;
                        eval.acceptSwap();
                        std::swap(run.labels[i], run.labels[j]);
                        improved = true;
                    }
                }
            }
            if (!improved)
                break;
        }
        run.weight = cur;
    });

    deadline.check();

    // Fold in restart order: strict < keeps the earliest best, exactly as
    // the serial loop did.
    uint64_t best = UINT64_MAX;
    uint64_t evaluated = 0;
    const Restart *winner = nullptr;
    for (const Restart &run : runs) {
        evaluated += run.evaluated;
        if (run.weight < best) {
            best = run.weight;
            winner = &run;
        }
    }

    SearchResult res;
    if (winner) {
        std::vector<int> assign(num_leaves);
        for (uint32_t pos = 0; pos < num_leaves; ++pos)
            assign[winner->labels[pos]] = static_cast<int>(pos);
        assign.resize(2 * n);
        res.mapping = mappingFromTree(winner->tree, "FH*", assign);
    }
    res.weight = best;
    res.evaluated = evaluated;
    metrics::add("search.candidates", res.evaluated);
    return res;
}

} // namespace hatt
