/**
 * @file
 * Tests for the HATT construction itself: the paper's worked example,
 * validity/vacuum across variants, agreement between the incremental
 * weight bookkeeping and the final mapped Hamiltonian, cache/no-cache
 * equivalence, quality vs the balanced-tree baseline, the deadline
 * path through the construction and the qubit-mapping engine, and
 * result-for-result agreement of the pairing scan (pair-once scoring,
 * scores carried across steps) with a per-step full-scan reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "common/deadline.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fermion/fock.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/hatt.hpp"
#include "mapping/hatt_counts.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/verify.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "models/neutrino.hpp"

namespace hatt {
namespace {

constexpr HattAlgorithm kAllAlgorithms[] = {
    HattAlgorithm::Unpaired, HattAlgorithm::Walked, HattAlgorithm::Cached};

/** Paper Eq. (3): H = a†0 a0 + 2 a†1 a†2 a1 a2 on 3 modes. */
FermionHamiltonian
paperExample()
{
    FermionHamiltonian hf(3);
    hf.add(1.0, {create(0), annihilate(0)});
    hf.add(2.0, {create(1), create(2), annihilate(1), annihilate(2)});
    return hf;
}

TEST(Hatt, PaperExampleStepWeights)
{
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(paperExample());
    HattResult res = buildHattMapping(poly);

    // Paper Sec. III/IV: step 0 settles weight 1 on q0 (nodes O0,O1,O6),
    // step 1 settles weight 2 on q1.
    ASSERT_EQ(res.stats.stepWeights.size(), 3u);
    EXPECT_EQ(res.stats.stepWeights[0], 1u);
    EXPECT_EQ(res.stats.stepWeights[1], 2u);

    // Step 0 must have grouped O0, O1, O6 under the first internal node.
    const TreeNode &first = res.tree.node(7); // id 2N+1 = 7
    EXPECT_EQ(first.child[BranchX], 0);
    EXPECT_EQ(first.child[BranchY], 1);
    EXPECT_EQ(first.child[BranchZ], 6);
}

TEST(Hatt, PredictedWeightMatchesMappedHamiltonian)
{
    // The incremental per-qubit weight accounting must equal the Pauli
    // weight of the final mapped Hamiltonian exactly.
    for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        MajoranaPolynomial poly = randomMajoranaPolynomial(6, 14, seed);
        for (HattAlgorithm alg : kAllAlgorithms) {
            HattResult res = buildHattMapping(poly, {alg});
            PauliSum mapped = mapToQubits(poly, res.mapping);
            EXPECT_EQ(res.stats.predictedWeight, mapped.pauliWeight())
                << "seed=" << seed << " algorithm=" << static_cast<int>(alg);
        }
    }
}

TEST(Hatt, ValidMappingAllVariants)
{
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(hubbardModel({2, 2, 1.0, 4.0}));
    for (HattAlgorithm alg : kAllAlgorithms) {
        HattResult res = buildHattMapping(poly, {alg});
        MappingCheck check = verifyMapping(res.mapping);
        EXPECT_TRUE(check.valid) << check.reason;
        EXPECT_TRUE(res.tree.isCompleteTree());
    }
}

TEST(Hatt, VacuumPreservedWithPairing)
{
    for (uint32_t n : {1u, 2u, 3u, 5u, 8u}) {
        MajoranaPolynomial poly = randomMajoranaPolynomial(n, 3 * n, 99 + n);
        HattResult res = buildHattMapping(poly);
        EXPECT_TRUE(preservesVacuum(res.mapping)) << "n=" << n;
    }
}

TEST(Hatt, CacheAndWalkVariantsIdentical)
{
    // Algorithm 3 (cached) must reproduce Algorithm 2 (walking) exactly,
    // string for string.
    for (uint64_t seed : {10ull, 20ull, 30ull}) {
        MajoranaPolynomial poly = randomMajoranaPolynomial(7, 20, seed);
        HattResult a = buildHattMapping(poly, {HattAlgorithm::Cached});
        HattResult b = buildHattMapping(poly, {HattAlgorithm::Walked});
        ASSERT_EQ(a.mapping.majorana.size(), b.mapping.majorana.size());
        for (size_t i = 0; i < a.mapping.majorana.size(); ++i)
            EXPECT_EQ(a.mapping.majorana[i].string,
                      b.mapping.majorana[i].string)
                << "seed=" << seed << " i=" << i;
    }
}

TEST(Hatt, BeatsOrMatchesBttOnStructuredModels)
{
    // The headline claim: adaptive construction never does worse than the
    // balanced tree by much, and typically wins, on structured inputs.
    struct Case { FermionHamiltonian hf; };
    std::vector<FermionHamiltonian> cases;
    cases.push_back(hubbardModel({2, 2, 1.0, 4.0}));
    cases.push_back(hubbardModel({2, 3, 1.0, 4.0}));
    cases.push_back(neutrinoModel({2, 2, 0.1}));

    uint64_t total_hatt = 0, total_btt = 0;
    for (const auto &hf : cases) {
        MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
        HattResult res = buildHattMapping(poly);
        PauliSum viaHatt = mapToQubits(poly, res.mapping);
        PauliSum viaBtt =
            mapToQubits(poly, balancedTernaryTreeMapping(poly.numModes()));
        total_hatt += viaHatt.pauliWeight();
        total_btt += viaBtt.pauliWeight();
        // Greedy is not a per-instance guarantee; bound the loss.
        EXPECT_LE(viaHatt.pauliWeight(),
                  viaBtt.pauliWeight() + viaBtt.pauliWeight() / 5);
    }
    EXPECT_LE(total_hatt, total_btt);
}

TEST(Hatt, IsospectralWithJordanWigner)
{
    FermionHamiltonian hf = hubbardModel({1, 3, 1.0, 4.0}); // 6 modes
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    HattResult res = buildHattMapping(poly);
    PauliSum viaHatt = mapToQubits(poly, res.mapping);
    PauliSum viaJw = mapToQubits(poly, jordanWignerMapping(6));
    for (int k = 1; k <= 4; ++k) {
        EXPECT_NEAR(std::abs(viaHatt.normalizedTracePower(k) -
                             viaJw.normalizedTracePower(k)),
                    0.0, 1e-9)
            << "k=" << k;
    }
    FockSpace fock(6);
    EXPECT_NEAR(std::abs(viaHatt.expectationAllZeros() -
                         fock.vacuumExpectation(hf)),
                0.0, 1e-9);
}

TEST(Hatt, HermitianOutput)
{
    FermionHamiltonian hf = neutrinoModel({2, 2, 0.1});
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    HattResult res = buildHattMapping(poly);
    PauliSum mapped = mapToQubits(poly, res.mapping);
    EXPECT_LT(mapped.maxImagCoeff(), 1e-9);
}

TEST(Hatt, SingleModeWorks)
{
    MajoranaPolynomial poly(1);
    poly.add(cplx{0.0, 0.5}, {0, 1}); // i/2 M0 M1 = n_0 - 1/2
    HattResult res = buildHattMapping(poly);
    EXPECT_TRUE(verifyMapping(res.mapping).valid);
    EXPECT_TRUE(preservesVacuum(res.mapping));
    PauliSum mapped = mapToQubits(poly, res.mapping);
    EXPECT_EQ(mapped.pauliWeight(), 1u); // single Z
}

TEST(Hatt, EmptyHamiltonianStillBuildsValidTree)
{
    MajoranaPolynomial poly(4); // no terms at all
    HattResult res = buildHattMapping(poly);
    EXPECT_TRUE(verifyMapping(res.mapping).valid);
    EXPECT_TRUE(preservesVacuum(res.mapping));
    EXPECT_EQ(res.stats.predictedWeight, 0u);
}

TEST(Hatt, MotivationExampleBeatsBalancedTree)
{
    // Paper Fig. 4: HF = c1 M0 M5 + c2 M1 M3 on 3 modes; the balanced
    // tree gives weight 6, an adapted tree gives 3.
    MajoranaPolynomial poly(3);
    poly.add(cplx{1.0, 0.0}, {0, 5});
    poly.add(cplx{1.0, 0.0}, {1, 3});

    PauliSum viaBtt = mapToQubits(
        poly, balancedTernaryTreeMapping(3, BttAssignment::Natural));
    EXPECT_EQ(viaBtt.pauliWeight(), 6u);

    HattResult res = buildHattMapping(poly, {HattAlgorithm::Unpaired});
    PauliSum viaHatt = mapToQubits(poly, res.mapping);
    EXPECT_LE(viaHatt.pauliWeight(), 3u);
}

// ---------------------------------------------------------------- deadline

TEST(Hatt, ExpiredDeadlineThrowsForEveryAlgorithm)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(8, 40, 7);
    for (HattAlgorithm alg : kAllAlgorithms) {
        EXPECT_THROW(buildHattMapping(poly, {alg, Deadline::after(0.0)}),
                     DeadlineExceededError)
            << "algorithm=" << static_cast<int>(alg);
    }
}

// ------------------------------------------- pairing scan reference oracle

/**
 * The pairing construction (Algorithms 2/3) with a full scan per step:
 * every active holder scores its pair from scratch (so each pair is
 * scored from both holders), OZ is the first-argmin by active position
 * of the top-3 cnt1 table and the corrected neighbours, and the first
 * strict minimum in position order wins. This is the scan the library
 * shipped before scores were carried across steps, kept serial.
 */
HattResult
referencePairingHatt(const MajoranaPolynomial &poly, bool desc_cache)
{
    const uint32_t n = poly.numModes();
    const int num_leaves = static_cast<int>(2 * n + 1);
    const int last_leaf = num_leaves - 1;
    const size_t max_id = 3 * size_t{n} + 1;

    TernaryTree tree(n);
    std::vector<int> active(num_leaves);
    for (int i = 0; i < num_leaves; ++i)
        active[i] = i;
    detail::TermCounts counts(static_cast<uint32_t>(max_id));
    for (const auto &t : poly.terms())
        if (!t.indices.empty())
            counts.addTerm(t.indices);
    counts.finalize();
    std::vector<int> mdown(max_id, -1), mup(max_id, -1);
    for (int i = 0; i < num_leaves; ++i)
        mdown[i] = mup[i] = i;
    auto desc_z = [&](int id) {
        return desc_cache ? mdown[id] : tree.zDescendant(id);
    };
    auto traverse_up = [&](int leaf) {
        if (desc_cache)
            return mup[leaf];
        int id = leaf;
        while (tree.node(id).parent != -1)
            id = tree.node(id).parent;
        return id;
    };

    HattStats stats;
    std::vector<int> pos_of(max_id, -1);
    std::vector<int64_t> corr(max_id);
    std::vector<bool> corrected(max_id);
    for (uint32_t step = 0; step < n; ++step) {
        const size_t m = active.size();
        std::vector<int64_t> cnt1pos(m);
        for (size_t p = 0; p < m; ++p) {
            pos_of[active[p]] = static_cast<int>(p);
            cnt1pos[p] = counts.count1(active[p]);
        }
        using Entry = std::pair<int64_t, int>; // (cnt1, position)
        std::vector<Entry> order(m);
        for (size_t p = 0; p < m; ++p)
            order[p] = {cnt1pos[p], static_cast<int>(p)};
        std::partial_sort(order.begin(), order.begin() + 3, order.end());

        int64_t best_w = -1;
        int bx = -1, by = -1, bz = -1;
        for (size_t p = 0; p < m; ++p) {
            const int ox = active[p];
            const int x = desc_z(ox);
            if (x == last_leaf)
                continue;
            const int y = (x % 2 == 0) ? x + 1 : x - 1;
            const int oy = traverse_up(y);
            const int cx = (x % 2 == 0) ? ox : oy;
            const int cy = (x % 2 == 0) ? oy : ox;
            const int pox = static_cast<int>(p), poy = pos_of[oy];

            int64_t pair_xy = 0;
            std::vector<int> cand;
            auto add = [&](int id, int64_t cv) {
                const int q = pos_of[id];
                if (!corrected[q]) {
                    corrected[q] = true;
                    corr[q] = 0;
                    cand.push_back(q);
                }
                corr[q] += cv;
            };
            for (const auto &[id, cv] : counts.adjacency(cx)) {
                if (id == cy)
                    pair_xy = cv;
                else
                    add(id, cv);
            }
            for (const auto &[id, cv] : counts.adjacency(cy))
                if (id != cx)
                    add(id, cv);

            // First top entry not excluded by {pox, poy}.
            Entry top{};
            for (const Entry &e : order) {
                if (e.second != pox && e.second != poy) {
                    top = e;
                    break;
                }
            }
            Entry low{std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int>::max()};
            for (int q : cand)
                low = std::min(low, Entry{cnt1pos[q] - corr[q], q});
            Entry best;
            if (cand.empty())
                best = top;
            else if (corrected[top.second])
                best = low; // every uncorrected candidate is above it
            else
                best = std::min(top, low);
            for (int q : cand)
                corrected[q] = false;
            const int64_t w = counts.count1(cx) + counts.count1(cy) -
                              pair_xy + best.first;
            stats.candidatesEvaluated += m - 2;
            if (best_w < 0 || w < best_w)
                std::tie(best_w, bx, by, bz) =
                    std::make_tuple(w, cx, cy, active[best.second]);
        }

        const int parent = tree.addInternal(static_cast<int>(step), bx, by, bz);
        if (mdown[bz] >= 0) {
            mdown[parent] = mdown[bz];
            mup[mdown[bz]] = parent;
        }
        std::erase_if(active,
                      [&](int id) { return id == bx || id == by || id == bz; });
        active.push_back(parent);
        counts.merge(bx, by, bz, parent);
        stats.stepWeights.push_back(static_cast<uint64_t>(best_w));
        stats.predictedWeight += static_cast<uint64_t>(best_w);
    }
    HattResult result{FermionQubitMapping{}, std::move(tree), stats};
    result.mapping = mappingFromTree(result.tree, "HATT");
    return result;
}

void
expectSameHattResult(const HattResult &got, const HattResult &want,
                     const std::string &what)
{
    ASSERT_EQ(got.mapping.majorana.size(), want.mapping.majorana.size())
        << what;
    for (size_t i = 0; i < got.mapping.majorana.size(); ++i)
        ASSERT_TRUE(got.mapping.majorana[i].string ==
                    want.mapping.majorana[i].string)
            << what << " M" << i;
    ASSERT_EQ(got.tree.numNodes(), want.tree.numNodes()) << what;
    for (int id = 0; id < static_cast<int>(got.tree.numNodes()); ++id) {
        const TreeNode &a = got.tree.node(id), &b = want.tree.node(id);
        ASSERT_TRUE(a.child == b.child && a.parent == b.parent &&
                    a.qubit == b.qubit && a.leafIndex == b.leafIndex)
            << what << " node " << id;
    }
    EXPECT_EQ(got.stats.stepWeights, want.stats.stepWeights) << what;
    EXPECT_EQ(got.stats.predictedWeight, want.stats.predictedWeight) << what;
    EXPECT_EQ(got.stats.candidatesEvaluated, want.stats.candidatesEvaluated)
        << what;
}

/**
 * Lattice-like sparse polynomial: two modes per site of a rows x cols
 * grid, each bond kept with probability 0.7 (hopping monomials of both
 * spins, sometimes a density-density term), random number terms and
 * on-site interactions. Uniform local structure gives many equal
 * weights, which exercises the tie-breaking.
 */
MajoranaPolynomial
randomLatticePolynomial(uint32_t rows, uint32_t cols, uint64_t seed)
{
    Rng rng(seed);
    const uint32_t sites = rows * cols;
    MajoranaPolynomial poly(2 * sites);
    const cplx one{1.0, 0.0};
    auto mode = [](uint32_t site, uint32_t spin) { return 2 * site + spin; };
    for (uint32_t s = 0; s < sites; ++s) {
        const uint32_t r = s / cols, c = s % cols;
        for (uint32_t nb : {r + 1 < rows ? s + cols : s,
                            c + 1 < cols ? s + 1 : s}) {
            if (nb == s || !rng.chance(0.7))
                continue;
            for (uint32_t spin : {0u, 1u}) {
                const uint32_t i = mode(s, spin), j = mode(nb, spin);
                poly.add(one, {2 * i, 2 * j + 1});
                poly.add(one, {2 * i + 1, 2 * j});
            }
            if (rng.chance(0.3))
                poly.add(one, {2 * mode(s, 0), 2 * mode(s, 0) + 1,
                               2 * mode(nb, 0), 2 * mode(nb, 0) + 1});
        }
        for (uint32_t spin : {0u, 1u})
            if (rng.chance(0.5))
                poly.add(one, {2 * mode(s, spin), 2 * mode(s, spin) + 1});
        if (rng.chance(0.8))
            poly.add(one, {2 * mode(s, 0), 2 * mode(s, 0) + 1,
                           2 * mode(s, 1), 2 * mode(s, 1) + 1});
    }
    return poly;
}

TEST(Hatt, PairingScanMatchesFullScanReference)
{
    std::vector<std::pair<std::string, MajoranaPolynomial>> inputs;
    Rng shapes(2024);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const uint32_t rows = 1 + static_cast<uint32_t>(shapes.nextInt(10));
        const uint32_t cols = 1 + static_cast<uint32_t>(shapes.nextInt(15));
        inputs.emplace_back("lattice " + std::to_string(rows) + "x" +
                                std::to_string(cols),
                            randomLatticePolynomial(rows, cols, seed));
    }
    inputs.emplace_back("lattice 10x15",
                        randomLatticePolynomial(10, 15, 99));
    inputs.emplace_back("hubbard 6x6", MajoranaPolynomial::fromFermion(
                                           hubbardModel({6, 6, 1.0, 4.0})));
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const uint32_t n = 2 + static_cast<uint32_t>(seed * 7 % 23);
        inputs.emplace_back("dense n=" + std::to_string(n),
                            randomMajoranaPolynomial(n, 40 * n, seed));
    }

    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        for (const auto &[what, poly] : inputs) {
            const std::string tag =
                what + " threads=" + std::to_string(threads);
            expectSameHattResult(buildHattMapping(poly),
                                 referencePairingHatt(poly, true), tag);
            if (poly.numModes() <= 60)
                expectSameHattResult(
                    buildHattMapping(poly, {HattAlgorithm::Walked}),
                    referencePairingHatt(poly, false), tag + " walked");
        }
    }
    setParallelThreads(0);
}

TEST(Hatt, DeadlineExpiringMidConstructionThrows)
{
    // A 968-mode lattice takes tens of milliseconds to construct, so a
    // few-millisecond budget runs out part-way through the steps, and
    // no partial tree is returned.
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({22, 22, 1.0, 4.0}));
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        HattOptions opt;
        opt.deadline = Deadline::after(0.005);
        EXPECT_THROW(buildHattMapping(poly, opt), DeadlineExceededError)
            << "threads=" << threads;
    }
    setParallelThreads(0);
}

void
expectSameSum(const PauliSum &got, const PauliSum &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got.terms()[i].string == want.terms()[i].string) << i;
        EXPECT_EQ(got.terms()[i].coeff, want.terms()[i].coeff) << i;
    }
}

TEST(QubitMappingEngine, ExpiredDeadlineRefusesWorkUntilReplaced)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(8, 40, 7);
    const FermionQubitMapping map = buildHattMapping(poly).mapping;
    QubitMappingEngine engine(map);
    engine.setDeadline(Deadline::after(0.0));
    EXPECT_THROW(engine.addBatch(poly.terms()), DeadlineExceededError);
    engine.setDeadline({});
    engine.addBatch(poly.terms());
    expectSameSum(engine.finish(), mapToQubits(poly, map));
}

TEST(QubitMappingEngine, DeadlineExpiringMidBatchDiscardsThePartialBatch)
{
    // Far more work than the budget: the deadline is live at the
    // pre-dispatch checkpoint and expires while chunks are mapping, so
    // later chunks bail and only the post-dispatch checkpoint can stop
    // the partial batch from being merged.
    MajoranaPolynomial poly = randomMajoranaPolynomial(256, 400000, 11);
    const FermionQubitMapping map = jordanWignerMapping(256);
    QubitMappingEngine engine(map);
    engine.setDeadline(Deadline::after(0.002));
    EXPECT_THROW(engine.addBatch(poly.terms()), DeadlineExceededError);
    EXPECT_EQ(engine.finish().size(), 0u);
}

} // namespace
} // namespace hatt
