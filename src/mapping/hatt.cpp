#include "mapping/hatt.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "mapping/hatt_counts.hpp"

namespace hatt {

namespace {

using detail::TermCounts;

/**
 * The candidate scans below never evaluate every triple. For a fixed
 * prefix (two chosen nodes with summed count `base`), the weight of
 * completing the triple with node v is
 *
 *     w(v) = base + cnt1[v] - corrections(v)
 *
 * where corrections(v) > 0 only for the sparse set of nodes adjacent
 * (via a nonzero pair count) to the two chosen nodes. Since corrections
 * are strictly positive, the first-argmin over all v is obtained exactly
 * by combining
 *   - the explicit first-argmin over the corrected nodes, and
 *   - the first-argmin of plain cnt1 over the rest (a suffix-argmin
 *     array / top-3 table, rebuilt once per step),
 * with value-then-scan-order tie-breaking. This reproduces the seed's
 * "first strict minimum in scan order" selection bit-exactly while doing
 * O(adjacency) work per prefix instead of O(active).
 *
 * The Algorithm 1 scan indexes the scratch by active position; the
 * pairing scan indexes it by node id. `active` is sorted by id, so the
 * two orders agree.
 *
 * The pairing scan (Algorithms 2/3) has one prefix per unpaired leaf
 * pair, whose two holders become OX and OY. Each pair is scored once,
 * from its lower holder: the visit from the other holder gives the same
 * triple and weight, so it cannot displace the first strict minimum,
 * and its m - 2 candidates are counted without being scored. A pair's
 * score (base and corrected first-argmin, keyed by node id) is carried
 * across steps: a merge changes only the rows of the nodes that shared
 * a term with the merged triple (TermCounts::merge reports them), and
 * only the pairs they hold are rescored. The top-3 cnt1 table is
 * rebuilt every step, O(1) per pair. On a sparse lattice a few percent
 * of the pairs are rescored per step; on a dense input nearly all are,
 * through the same code. The pairing scan runs on the calling thread:
 * past the first step a sparse lattice rescores a few dozen pairs per
 * step, and a dense input has one pair per mode, too little work per
 * step to hand to the pool.
 */
struct ScanScratch
{
    std::vector<int64_t> corr;
    std::vector<uint64_t> stamp;
    std::vector<int> cand;
    uint64_t epoch = 0;

    void
    prepare(size_t m)
    {
        if (corr.size() < m) {
            corr.resize(m);
            stamp.assign(corr.size(), 0);
        }
    }

    void
    begin()
    {
        ++epoch;
        cand.clear();
    }

    void
    add(int key, int64_t count)
    {
        if (stamp[key] != epoch) {
            stamp[key] = epoch;
            corr[key] = 0;
            cand.push_back(key);
        }
        corr[key] += count;
    }
};

thread_local ScanScratch tls_scratch;

/** Winning triple of one scan; w < 0 means "none seen yet". */
struct BestTriple
{
    int64_t w = -1;
    int bx = -1, by = -1, bz = -1;
};

/** Chunk result: local best (in scan order) + seed-compatible stats. */
struct ChunkResult
{
    BestTriple best;
    uint64_t candidates = 0;
};

/** Fold chunk results in chunk order: strict < keeps the earliest min. */
ChunkResult
combineChunks(ChunkResult acc, const ChunkResult &next)
{
    acc.candidates += next.candidates;
    if (next.best.w >= 0 && (acc.best.w < 0 || next.best.w < acc.best.w))
        acc.best = next.best;
    return acc;
}

/** First-argmin over corrected keys: lex-min of (value, key). */
template <typename Count1>
std::pair<int64_t, int>
correctedBest(const ScanScratch &s, Count1 &&cnt1)
{
    int64_t cv = std::numeric_limits<int64_t>::max();
    int cp = std::numeric_limits<int>::max();
    for (int k : s.cand) {
        int64_t v = cnt1(k) - s.corr[k];
        if (v < cv || (v == cv && k < cp)) {
            cv = v;
            cp = k;
        }
    }
    return {cv, cp};
}

/**
 * Score of one unpaired leaf pair in the pairing scan: its holders
 * (cx on the X branch, cy on Y), base = cnt1[cx] + cnt1[cy] -
 * pair(cx, cy), and the corrected first-argmin (zv, zid) over the OZ
 * nodes adjacent to cx or cy. All of it depends only on the rows of
 * cx and cy and on cnt1 of their neighbours, so it is carried across
 * steps until one of those changes (see the merge in the step loop).
 */
struct PairScore
{
    int cx = -1, cy = -1;
    int64_t base = 0;
    int64_t zv = std::numeric_limits<int64_t>::max();
    int zid = std::numeric_limits<int>::max();
};

void
scorePair(PairScore &s, const TermCounts &counts, ScanScratch &scr)
{
    int64_t pair_xy = 0;
    scr.begin();
    for (const auto &[id, cv] : counts.adjacency(s.cx)) {
        if (id == s.cy)
            pair_xy = cv;
        else
            scr.add(id, cv);
    }
    for (const auto &[id, cv] : counts.adjacency(s.cy)) {
        if (id != s.cx)
            scr.add(id, cv);
    }
    s.base = counts.count1(s.cx) + counts.count1(s.cy) - pair_xy;
    std::tie(s.zv, s.zid) =
        correctedBest(scr, [&](int id) { return counts.count1(id); });
}

} // namespace

HattResult
buildHattMapping(const MajoranaPolynomial &poly, const HattOptions &options)
{
    const uint32_t n = poly.numModes();
    if (n == 0)
        throw std::invalid_argument("buildHattMapping: zero modes");

    Timer timer;
    trace::Span span("mapping", "hatt_construct");
    const int num_leaves = static_cast<int>(2 * n + 1);
    const int last_leaf = num_leaves - 1; // leaf 2N: never paired
    const size_t max_id = static_cast<size_t>(3 * n + 1);

    TernaryTree tree(n);

    // Active (parentless) node set, kept sorted for determinism.
    std::vector<int> active(num_leaves);
    for (int i = 0; i < num_leaves; ++i)
        active[i] = i;

    // Reduced Hamiltonian: sorted id spans + incremental counts.
    TermCounts counts(static_cast<uint32_t>(max_id));
    for (const auto &t : poly.terms()) {
        if (t.indices.empty())
            continue;
        counts.addTerm(t.indices);
    }
    counts.finalize();

    // Algorithm 3 caches: node -> descZ(node) and descZ(node) -> node.
    std::vector<int> mdown(max_id, -1), mup(max_id, -1);
    for (int i = 0; i < num_leaves; ++i) {
        mdown[i] = i;
        mup[i] = i;
    }

    std::vector<bool> paired(num_leaves, false);
    const bool pairing = options.algorithm != HattAlgorithm::Unpaired;
    const bool cached = options.algorithm == HattAlgorithm::Cached;

    HattStats stats;
    stats.stepWeights.reserve(n);

    auto desc_z = [&](int id) {
        return cached ? mdown[id] : tree.zDescendant(id);
    };
    auto traverse_up = [&](int leaf) {
        if (cached)
            return mup[leaf];
        int id = leaf;
        while (tree.node(id).parent != -1)
            id = tree.node(id).parent;
        return id;
    };

    // Algorithm 1 per-step scan tables, allocated once.
    std::vector<int> pos_of(max_id, -1);
    std::vector<int64_t> cnt1pos;
    std::vector<int64_t> sufv; // suffix-argmin of cnt1pos (value)
    std::vector<int> sufp;     //   ... and its position

    // Pairing scan state: scores carried across steps, keyed by leaf
    // pair (x / 2), and per node the last step whose scan must rescore
    // the pair it holds.
    std::vector<PairScore> pair_scores(pairing ? n : 0);
    std::vector<uint32_t> dirty(max_id, 0);
    ScanScratch pair_scratch;
    if (pairing)
        pair_scratch.prepare(max_id);

    const unsigned threads = parallelThreads();
    const Deadline &deadline = options.deadline;

    for (uint32_t step = 0; step < n; ++step) {
        // Caller-thread checkpoint once per step (throws on expiry);
        // the scan chunks below only poll and bail, worker-safely.
        deadline.check();
        const size_t m = active.size();
        ChunkResult scan;

        if (!pairing) {
            // Algorithm 1: free choice of three nodes. The weight on the
            // new qubit does not depend on which child is X/Y/Z, so
            // combinations suffice; children are assigned in id order.
            cnt1pos.resize(m);
            for (size_t p = 0; p < m; ++p) {
                pos_of[active[p]] = static_cast<int>(p);
                cnt1pos[p] = counts.count1(active[p]);
            }
            sufv.resize(m);
            sufp.resize(m);
            sufv[m - 1] = cnt1pos[m - 1];
            sufp[m - 1] = static_cast<int>(m - 1);
            for (size_t p = m - 1; p-- > 0;) {
                if (cnt1pos[p] <= sufv[p + 1]) {
                    sufv[p] = cnt1pos[p];
                    sufp[p] = static_cast<int>(p);
                } else {
                    sufv[p] = sufv[p + 1];
                    sufp[p] = sufp[p + 1];
                }
            }

            auto scan_chunk = [&](size_t lo, size_t hi) {
                ScanScratch &scr = tls_scratch;
                scr.prepare(m);
                ChunkResult local;
                if (deadline.expired())
                    return local; // discarded: the step check() throws
                for (size_t i = lo; i < hi; ++i) {
                    const int a = active[i];
                    const auto &adj_a = counts.adjacency(a);
                    for (size_t j = i + 1; j + 1 < m; ++j) {
                        const int b = active[j];
                        int64_t pair_ab = 0;
                        scr.begin();
                        for (const auto &[id, cv] : adj_a) {
                            const int p = pos_of[id];
                            if (p == static_cast<int>(j))
                                pair_ab = cv;
                            else if (p > static_cast<int>(j))
                                scr.add(p, cv);
                        }
                        for (const auto &[id, cv] : counts.adjacency(b)) {
                            const int p = pos_of[id];
                            if (p > static_cast<int>(j))
                                scr.add(p, cv);
                        }

                        int64_t best_v = sufv[j + 1];
                        int best_p = sufp[j + 1];
                        if (!scr.cand.empty()) {
                            auto [cv, cp] = correctedBest(
                                scr, [&](int p) { return cnt1pos[p]; });
                            if (cv < best_v) {
                                best_v = cv;
                                best_p = cp;
                            } else if (cv == best_v) {
                                best_p = std::min(best_p, cp);
                            }
                        }

                        const int64_t w =
                            cnt1pos[i] + cnt1pos[j] - pair_ab + best_v;
                        local.candidates += m - 1 - j;
                        if (local.best.w < 0 || w < local.best.w)
                            local.best = {w, a, b, active[best_p]};
                    }
                }
                return local;
            };

            const size_t grain =
                threads <= 1 ? m : std::max<size_t>(1, m / (4 * threads));
            scan = parallelReduceChunks(m, grain, ChunkResult{}, scan_chunk,
                                        combineChunks);
        } else {
            // Algorithm 2/3: OX and OY hold an unpaired leaf pair, OZ
            // is free among the other m - 2 active nodes. Pair scores
            // are carried across steps (see the comment at the top);
            // only the uncorrected OZ (top-3 cnt1, two possible
            // exclusions) is looked up afresh.
            struct Entry
            {
                int64_t v = std::numeric_limits<int64_t>::max();
                int id = std::numeric_limits<int>::max();
            };
            // Ids ascend in `active`, so a new node enters the top-3
            // only with a strictly smaller cnt1 than the third entry.
            Entry top[3];
            for (const int id : active) {
                Entry e{counts.count1(id), id};
                if (e.v >= top[2].v)
                    continue;
                for (auto &slot : top) {
                    if (e.v < slot.v || (e.v == slot.v && e.id < slot.id))
                        std::swap(e, slot);
                }
            }

            for (const int ox : active) {
                const int x = desc_z(ox);
                assert(!paired[x]);
                if (x == last_leaf)
                    continue; // S_2N is discarded and never paired
                const int y = x ^ 1;
                assert(!paired[y]);
                const int oy = traverse_up(y);
                assert(oy != ox);
                scan.candidates += m - 2;
                if (oy < ox)
                    continue; // scored from its lower holder
                // Even leaf goes on the X branch -> pair reads (X, Y).
                PairScore &ps = pair_scores[x / 2];
                const int cx = (x % 2 == 0) ? ox : oy;
                const int cy = (x % 2 == 0) ? oy : ox;
                if (ps.cx != cx || ps.cy != cy || dirty[cx] == step ||
                    dirty[cy] == step) {
                    ps.cx = cx;
                    ps.cy = cy;
                    scorePair(ps, counts, pair_scratch);
                }

                // First top entry that is neither holder.
                const Entry *e = top;
                while (e->id == cx || e->id == cy)
                    ++e;
                assert(e < top + 3);
                // Corrections are > 0, so a corrected top entry loses
                // to the corrected minimum and the lex-min is exact.
                int64_t zv = e->v;
                int zid = e->id;
                if (ps.zv < zv || (ps.zv == zv && ps.zid < zid)) {
                    zv = ps.zv;
                    zid = ps.zid;
                }
                const int64_t w = ps.base + zv;
                if (scan.best.w < 0 || w < scan.best.w)
                    scan.best = {w, cx, cy, zid};
            }
        }

        // If an Algorithm 1 chunk bailed, the scan is incomplete: expiry
        // is monotonic, so this throws before the step can commit it.
        deadline.check();

        stats.candidatesEvaluated += scan.candidates;
        const int64_t best_w = scan.best.w;
        const int bx = scan.best.bx, by = scan.best.by, bz = scan.best.bz;
        if (bx < 0)
            throw std::logic_error("buildHattMapping: no candidate triple");
        assert(best_w == counts.tripleWeight(bx, by, bz));

        const int qubit = static_cast<int>(step);
        const int parent = tree.addInternal(qubit, bx, by, bz);
        assert(parent == static_cast<int>(2 * n + 1 + step));

        if (pairing) {
            int px = desc_z(bx);
            int py = desc_z(by);
            assert(px % 2 == 0 && py == px + 1);
            paired[px] = true;
            paired[py] = true;
        }

        // Maintain Algorithm 3 maps: the new parent inherits the Z child's
        // Z-descendant.
        int zdesc = mdown[bz];
        if (zdesc >= 0) {
            mdown[parent] = zdesc;
            mup[zdesc] = parent;
        }

        // Update the active set (remove children, insert parent at end:
        // parent has the largest id so the vector stays sorted).
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](int id) {
                                        return id == bx || id == by ||
                                               id == bz;
                                    }),
                     active.end());
        active.push_back(parent);

        const std::vector<int> &changed = counts.merge(bx, by, bz, parent);
        // A pair score reads its holders' rows and their neighbours'
        // cnt1. A merge never changes cnt1 of a surviving id (every term
        // keeps its other ids and its multiplicity), and a new neighbour
        // changes the holder's row, so the changed ids are exactly the
        // holders whose pairs must be rescored.
        for (const int id : changed)
            dirty[id] = step + 1;

        stats.stepWeights.push_back(static_cast<uint64_t>(best_w));
        stats.predictedWeight += static_cast<uint64_t>(best_w);
    }

    assert(active.size() == 1);
    assert(tree.isCompleteTree());

    HattResult result{FermionQubitMapping{}, std::move(tree), stats};
    result.mapping = mappingFromTree(
        result.tree, pairing ? "HATT" : "HATT-unopt");
    result.stats.seconds = timer.seconds();
    // Bulk-added once per construction, never per candidate: the totals
    // are pinned deterministic by the parity tests.
    metrics::add("hatt.constructions");
    metrics::add("hatt.steps", stats.stepWeights.size());
    metrics::add("hatt.candidates", stats.candidatesEvaluated);
    return result;
}

} // namespace hatt
