#include "mapping/hatt.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
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
 * completing the triple with node v at active-position p is
 *
 *     w(p) = base + cnt1[p] - corrections(p)
 *
 * where corrections(p) > 0 only for the sparse set of positions adjacent
 * (via a nonzero pair count) to the two chosen nodes. Since corrections
 * are strictly positive, the first-argmin over all p is obtained exactly
 * by combining
 *   - the explicit first-argmin over the corrected positions, and
 *   - the first-argmin of plain cnt1 over the range (precomputed once per
 *     step as a suffix-argmin array / top-3 table),
 * with value-then-position tie-breaking. This reproduces the seed's
 * "first strict minimum in scan order" selection bit-exactly while doing
 * O(adjacency) work per prefix instead of O(active).
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
    add(int pos, int64_t count)
    {
        if (stamp[pos] != epoch) {
            stamp[pos] = epoch;
            corr[pos] = 0;
            cand.push_back(pos);
        }
        corr[pos] += count;
    }

    bool corrected(int pos) const { return stamp[pos] == epoch; }
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

/** First-argmin over corrected positions: lex-min of (value, position). */
std::pair<int64_t, int>
correctedBest(const ScanScratch &s, const std::vector<int64_t> &cnt1pos)
{
    int64_t cv = std::numeric_limits<int64_t>::max();
    int cp = std::numeric_limits<int>::max();
    for (int p : s.cand) {
        int64_t v = cnt1pos[p] - s.corr[p];
        if (v < cv || (v == cv && p < cp)) {
            cv = v;
            cp = p;
        }
    }
    return {cv, cp};
}

} // namespace

HattResult
buildHattMapping(const MajoranaPolynomial &poly, const HattOptions &options)
{
    const uint32_t n = poly.numModes();
    if (n == 0)
        throw std::invalid_argument("buildHattMapping: zero modes");
    if (options.descCache && !options.vacuumPairing)
        throw std::invalid_argument(
            "buildHattMapping: descCache requires vacuumPairing");

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

    // Reduced Hamiltonian: packed supports + incremental counts.
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

    HattStats stats;
    stats.stepWeights.reserve(n);

    auto desc_z = [&](int id) {
        return options.descCache ? mdown[id] : tree.zDescendant(id);
    };
    auto traverse_up = [&](int leaf) {
        if (options.descCache)
            return mup[leaf];
        int id = leaf;
        while (tree.node(id).parent != -1)
            id = tree.node(id).parent;
        return id;
    };

    // Per-step scan tables, allocated once.
    std::vector<int> pos_of(max_id, -1);
    std::vector<int64_t> cnt1pos;
    std::vector<int64_t> sufv; // suffix-argmin of cnt1pos (value)
    std::vector<int> sufp;     //   ... and its position

    const unsigned threads = parallelThreads();
    const Deadline &deadline = options.deadline;

    for (uint32_t step = 0; step < n; ++step) {
        // Caller-thread checkpoint once per step (throws on expiry);
        // the scan chunks below only poll and bail, worker-safely.
        deadline.check();
        const size_t m = active.size();
        cnt1pos.resize(m);
        for (size_t p = 0; p < m; ++p) {
            pos_of[active[p]] = static_cast<int>(p);
            cnt1pos[p] = counts.count1(active[p]);
        }

        ChunkResult scan;

        if (!options.vacuumPairing) {
            // Algorithm 1: free choice of three nodes. The weight on the
            // new qubit does not depend on which child is X/Y/Z, so
            // combinations suffice; children are assigned in id order.
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
                            auto [cv, cp] = correctedBest(scr, cnt1pos);
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
            // Algorithm 2/3: OX free, OY forced by the pairing rule,
            // OZ free among the rest. Per OX the OZ scan reduces to a
            // top-3 lookup (2 possible exclusions) plus corrections.
            struct Entry
            {
                int64_t v = std::numeric_limits<int64_t>::max();
                int p = std::numeric_limits<int>::max();
            };
            Entry top[3];
            for (size_t p = 0; p < m; ++p) {
                Entry e{cnt1pos[p], static_cast<int>(p)};
                for (auto &slot : top) {
                    if (e.v < slot.v || (e.v == slot.v && e.p < slot.p))
                        std::swap(e, slot);
                }
            }

            auto scan_chunk = [&](size_t lo, size_t hi) {
                ScanScratch &scr = tls_scratch;
                scr.prepare(m);
                ChunkResult local;
                if (deadline.expired())
                    return local; // discarded: the step check() throws
                for (size_t p = lo; p < hi; ++p) {
                    const int ox = active[p];
                    const int x = desc_z(ox);
                    assert(!paired[x]);
                    if (x == last_leaf)
                        continue; // S_2N is discarded and never paired
                    const int y = (x % 2 == 0) ? x + 1 : x - 1;
                    assert(!paired[y]);
                    const int oy = traverse_up(y);
                    assert(oy != ox);
                    // Even leaf goes on the X branch -> pair reads (X, Y).
                    const int cx = (x % 2 == 0) ? ox : oy;
                    const int cy = (x % 2 == 0) ? oy : ox;
                    const int pox = static_cast<int>(p);
                    const int poy = pos_of[oy];

                    int64_t pair_xy = 0;
                    scr.begin();
                    for (const auto &[id, cv] : counts.adjacency(cx)) {
                        if (id == cy)
                            pair_xy = cv;
                        else
                            scr.add(pos_of[id], cv);
                    }
                    for (const auto &[id, cv] : counts.adjacency(cy)) {
                        if (id != cx)
                            scr.add(pos_of[id], cv);
                    }

                    // First top entry not excluded by {pox, poy}.
                    const Entry *e = nullptr;
                    for (const auto &slot : top) {
                        if (slot.p != pox && slot.p != poy) {
                            e = &slot;
                            break;
                        }
                    }
                    assert(e && e->p < static_cast<int>(m));

                    int64_t best_v;
                    int best_p;
                    if (scr.cand.empty()) {
                        best_v = e->v;
                        best_p = e->p;
                    } else if (scr.corrected(e->p)) {
                        // Every uncorrected candidate is strictly above
                        // the corrected minimum (corrections > 0).
                        std::tie(best_v, best_p) =
                            correctedBest(scr, cnt1pos);
                    } else {
                        auto [cv, cp] = correctedBest(scr, cnt1pos);
                        best_v = e->v;
                        best_p = e->p;
                        if (cv < best_v) {
                            best_v = cv;
                            best_p = cp;
                        } else if (cv == best_v) {
                            best_p = std::min(best_p, cp);
                        }
                    }

                    const int64_t w = counts.count1(cx) + counts.count1(cy) -
                                      pair_xy + best_v;
                    local.candidates += m - 2;
                    if (local.best.w < 0 || w < local.best.w)
                        local.best = {w, cx, cy, active[best_p]};
                }
                return local;
            };

            const size_t grain =
                threads <= 1 ? m : std::max<size_t>(1, m / (4 * threads));
            scan = parallelReduceChunks(m, grain, ChunkResult{}, scan_chunk,
                                        combineChunks);
        }

        // If any chunk bailed, the scan is incomplete: expiry is
        // monotonic, so this throws before the step can commit it.
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

        if (options.vacuumPairing) {
            int px = options.descCache ? mdown[bx] : tree.zDescendant(bx);
            int py = options.descCache ? mdown[by] : tree.zDescendant(by);
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

        counts.merge(bx, by, bz, parent);

        stats.stepWeights.push_back(static_cast<uint64_t>(best_w));
        stats.predictedWeight += static_cast<uint64_t>(best_w);
    }

    assert(active.size() == 1);
    assert(tree.isCompleteTree());

    HattResult result{FermionQubitMapping{}, std::move(tree), stats};
    result.mapping = mappingFromTree(
        result.tree, options.vacuumPairing ? "HATT" : "HATT-unopt");
    result.stats.seconds = timer.seconds();
    // Bulk-added once per construction, never per candidate: the totals
    // are pinned deterministic by the parity tests.
    metrics::add("hatt.constructions");
    metrics::add("hatt.steps", stats.stepWeights.size());
    metrics::add("hatt.candidates", stats.candidatesEvaluated);
    return result;
}

} // namespace hatt
