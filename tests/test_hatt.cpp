/**
 * @file
 * Tests for the HATT construction itself: the paper's worked example,
 * validity/vacuum across variants, agreement between the incremental
 * weight bookkeeping and the final mapped Hamiltonian, cache/no-cache
 * equivalence, quality vs the balanced-tree baseline, and the deadline
 * path through the construction and the qubit-mapping engine.
 */

#include <gtest/gtest.h>

#include "common/deadline.hpp"
#include "fermion/fock.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/verify.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "models/neutrino.hpp"

namespace hatt {
namespace {

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
        for (bool pairing : {false, true}) {
            HattOptions opt;
            opt.vacuumPairing = pairing;
            opt.descCache = pairing;
            HattResult res = buildHattMapping(poly, opt);
            PauliSum mapped = mapToQubits(poly, res.mapping);
            EXPECT_EQ(res.stats.predictedWeight, mapped.pauliWeight())
                << "seed=" << seed << " pairing=" << pairing;
        }
    }
}

TEST(Hatt, ValidMappingAllVariants)
{
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(hubbardModel({2, 2, 1.0, 4.0}));
    for (bool pairing : {false, true}) {
        HattOptions opt;
        opt.vacuumPairing = pairing;
        opt.descCache = pairing;
        HattResult res = buildHattMapping(poly, opt);
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
        HattOptions cached{true, true};
        HattOptions walked{true, false};
        HattResult a = buildHattMapping(poly, cached);
        HattResult b = buildHattMapping(poly, walked);
        ASSERT_EQ(a.mapping.majorana.size(), b.mapping.majorana.size());
        for (size_t i = 0; i < a.mapping.majorana.size(); ++i)
            EXPECT_EQ(a.mapping.majorana[i].string,
                      b.mapping.majorana[i].string)
                << "seed=" << seed << " i=" << i;
    }
}

TEST(Hatt, RejectsCacheWithoutPairing)
{
    MajoranaPolynomial poly = majoranaChain(3);
    HattOptions bad;
    bad.vacuumPairing = false;
    bad.descCache = true;
    EXPECT_THROW(buildHattMapping(poly, bad), std::invalid_argument);
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

    HattOptions unopt;
    unopt.vacuumPairing = false;
    unopt.descCache = false;
    HattResult res = buildHattMapping(poly, unopt);
    PauliSum viaHatt = mapToQubits(poly, res.mapping);
    EXPECT_LE(viaHatt.pauliWeight(), 3u);
}

// ---------------------------------------------------------------- deadline

TEST(Hatt, ExpiredDeadlineThrowsForBothVariants)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(8, 40, 7);
    for (bool pairing : {true, false}) {
        HattOptions opt;
        opt.vacuumPairing = pairing;
        opt.descCache = pairing;
        opt.deadline = Deadline::after(0.0);
        EXPECT_THROW(buildHattMapping(poly, opt), DeadlineExceededError)
            << (pairing ? "hatt" : "hatt-unopt");
    }
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
