/**
 * @file
 * Tests for the fermionic operator algebra, Majorana preprocessing
 * (including the paper's worked Eq. (3) example and a property test of
 * the flat expansion kernel against the vector-based reference), and
 * the Fock-space oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fermion/fermion_op.hpp"
#include "fermion/fock.hpp"
#include "fermion/majorana.hpp"

namespace hatt {
namespace {

/** The paper's Eq. (3): H = a†0 a0 + 2 a†1 a†2 a1 a2 on 3 modes. */
FermionHamiltonian
paperExample()
{
    FermionHamiltonian hf(3);
    hf.add(1.0, {create(0), annihilate(0)});
    hf.add(2.0, {create(1), create(2), annihilate(1), annihilate(2)});
    return hf;
}

std::optional<MajoranaMonomial>
findTerm(const MajoranaPolynomial &poly, const std::vector<uint32_t> &idx)
{
    for (const MajoranaMonomial &t : poly.terms())
        if (std::ranges::equal(t.indices, idx))
            return t;
    return std::nullopt;
}

// ------------------------------------------------- reference preprocessing
// The vector-based expansion the flat kernel replaced: every combination
// allocates its index vector, canonicalize() sorts and cancels it, and a
// vector-keyed unordered_map folds it. Kept here as the oracle.

std::pair<double, std::vector<uint32_t>>
refCanonicalize(std::vector<uint32_t> idx)
{
    double sign = 1.0;
    for (size_t i = 1; i < idx.size(); ++i) {
        size_t j = i;
        while (j > 0 && idx[j - 1] > idx[j]) {
            std::swap(idx[j - 1], idx[j]);
            sign = -sign;
            --j;
        }
    }
    std::vector<uint32_t> out;
    out.reserve(idx.size());
    size_t i = 0;
    while (i < idx.size()) {
        if (i + 1 < idx.size() && idx[i] == idx[i + 1]) {
            i += 2;
        } else {
            out.push_back(idx[i]);
            ++i;
        }
    }
    return {sign, out};
}

struct RefIndexVecHash
{
    size_t
    operator()(const std::vector<uint32_t> &v) const
    {
        uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
        for (uint32_t x : v) {
            h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            h *= 0xff51afd7ed558ccdULL;
        }
        return static_cast<size_t>(h);
    }
};

struct RefTerm
{
    cplx coeff;
    std::vector<uint32_t> indices;
};

std::vector<RefTerm>
refPreprocess(const std::vector<FermionTerm> &terms, double tol = kCoeffTol)
{
    std::unordered_map<std::vector<uint32_t>, size_t, RefIndexVecHash> index;
    std::vector<RefTerm> order;
    for (const FermionTerm &term : terms) {
        const size_t k = term.ops.size();
        if (k > kMaxLadderOps)
            throw std::invalid_argument("term with > 30 ladder operators");
        for (size_t mask = 0; mask < (size_t{1} << k); ++mask) {
            cplx coeff = term.coeff;
            std::vector<uint32_t> indices;
            for (size_t p = 0; p < k; ++p) {
                const FermionOp &op = term.ops[p];
                coeff *= 0.5;
                if ((mask >> p) & 1) {
                    indices.push_back(2 * op.mode + 1);
                    coeff *= op.creation ? cplx{0.0, -1.0} : cplx{0.0, 1.0};
                } else {
                    indices.push_back(2 * op.mode);
                }
            }
            auto [sign, canon] = refCanonicalize(std::move(indices));
            coeff *= sign;
            auto it = index.find(canon);
            if (it != index.end()) {
                order[it->second].coeff += coeff;
            } else {
                index.emplace(canon, order.size());
                order.push_back({coeff, std::move(canon)});
            }
        }
    }
    std::vector<RefTerm> kept;
    for (RefTerm &t : order)
        if (std::abs(t.coeff) >= tol)
            kept.push_back(std::move(t));
    return kept;
}

/** Same monomials in the same order, equal spans, memcmp-equal coeffs. */
void
expectMatchesReference(const MajoranaPolynomial &got,
                       const std::vector<RefTerm> &want,
                       const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
        const MajoranaMonomial t = got[i];
        ASSERT_TRUE(std::ranges::equal(t.indices, want[i].indices))
            << label << " term " << i;
        ASSERT_EQ(std::memcmp(&t.coeff, &want[i].coeff, sizeof(cplx)), 0)
            << label << " term " << i << ": " << t.coeff << " vs "
            << want[i].coeff;
    }
}

TEST(Majorana, CanonicalizeSortsWithSign)
{
    auto [sign, idx] = refCanonicalize({3, 1});
    EXPECT_EQ(sign, -1.0);
    EXPECT_EQ(idx, (std::vector<uint32_t>{1, 3}));

    auto [sign2, idx2] = refCanonicalize({3, 1, 3});
    EXPECT_EQ(sign2, -1.0);
    EXPECT_EQ(idx2, (std::vector<uint32_t>{1}));

    auto [sign3, idx3] = refCanonicalize({2, 2});
    EXPECT_EQ(sign3, 1.0);
    EXPECT_TRUE(idx3.empty());

    // M2 M1 M0 -> reverse order needs 3 swaps.
    auto [sign4, idx4] = refCanonicalize({2, 1, 0});
    EXPECT_EQ(sign4, -1.0);
    EXPECT_EQ(idx4, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Majorana, KernelMatchesVectorReferenceOnRandomTerms)
{
    // Random ladder products through the flat kernel (fromFermion and
    // the streaming accumulator) and through the vector reference:
    // degrees 0-8 plus a 16-op product, repeated operators (a_j a_j,
    // a†_j a_j a†_j), mode pools that force collisions, and modes
    // above 16384.
    Rng rng(20261017);
    for (int round = 0; round < 40; ++round) {
        const uint32_t pool = round % 4 == 0 ? 2 : round % 4 == 1 ? 5 : 40;
        const uint32_t base = round % 3 == 0 ? 16384 + 977 * round : 0;
        const uint32_t modes = base + pool;
        FermionHamiltonian hf(modes);
        const int nterms = 6 + round % 7;
        for (int t = 0; t < nterms; ++t) {
            const size_t degree = t == 0 && round % 10 == 9
                                      ? 16
                                      : static_cast<size_t>(rng.nextInt(9));
            std::vector<FermionOp> ops;
            for (size_t p = 0; p < degree; ++p) {
                const uint32_t mode =
                    base + static_cast<uint32_t>(rng.nextInt(pool));
                ops.push_back({mode, rng.chance(0.5)});
                if (rng.chance(0.2) && p + 1 < degree) {
                    ops.push_back(ops.back()); // a_j a_j or a†_j a†_j
                    ++p;
                }
            }
            const double re = rng.chance(0.2) ? 1.0 : rng.nextGaussian();
            const double im = rng.chance(0.5) ? 0.0 : rng.nextGaussian();
            hf.add(cplx{re, im}, std::move(ops));
        }
        if (round % 5 == 0)
            hf.add(0.75, {create(base), annihilate(base), create(base)});
        const std::vector<RefTerm> want = refPreprocess(hf.terms());
        const std::string label = "round " + std::to_string(round);

        MajoranaPolynomial batch = MajoranaPolynomial::fromFermion(hf);
        EXPECT_EQ(batch.numModes(), modes) << label;
        expectMatchesReference(batch, want, label + " fromFermion");

        StreamingMajoranaAccumulator acc;
        for (const FermionTerm &t : hf.terms())
            acc.add(t);
        acc.ensureModes(modes);
        expectMatchesReference(acc.finish(), want, label + " streamed");
    }
}

TEST(Majorana, AddMonomialMergesInFirstSeenOrder)
{
    // The monomial entry of the kernel (randomMajoranaPolynomial's
    // path): equal spans merge, first-seen order holds, and a
    // cancelled monomial is dropped at finish().
    StreamingMajoranaAccumulator acc(3);
    const std::vector<uint32_t> a{0, 3}, b{1, 2, 4, 5}, c{};
    acc.addMonomial(1.0, a);
    acc.addMonomial(2.0, b);
    acc.addMonomial(0.5, c);
    acc.addMonomial(-1.0, a);
    acc.addMonomial(0.25, b);
    EXPECT_EQ(acc.currentMonomials(), 3u);
    MajoranaPolynomial poly = acc.finish();
    ASSERT_EQ(poly.size(), 2u);
    EXPECT_TRUE(std::ranges::equal(poly[0].indices, b));
    EXPECT_EQ(poly[0].coeff, cplx(2.25, 0.0));
    EXPECT_TRUE(poly[1].indices.empty());
    EXPECT_EQ(poly.constantTerm(), cplx(0.5, 0.0));
    EXPECT_EQ(acc.currentMonomials(), 0u);
}

TEST(Majorana, PaperEquation3Preprocessing)
{
    // Paper: HF = 0.5i M0M1 - 0.5i M2M3 - 0.5i M4M5 + 0.5 M2M3M4M5
    // (plus a constant the paper drops: +0.5 from n0, and -0.5+... from
    // the two-body term; our expansion keeps the exact constant 0).
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(paperExample());
    EXPECT_EQ(poly.numModes(), 3u);

    std::optional<MajoranaMonomial> m01 = findTerm(poly, {0, 1});
    ASSERT_TRUE(m01);
    EXPECT_NEAR(std::abs(m01->coeff - cplx(0.0, 0.5)), 0.0, 1e-12);

    std::optional<MajoranaMonomial> m23 = findTerm(poly, {2, 3});
    ASSERT_TRUE(m23);
    EXPECT_NEAR(std::abs(m23->coeff - cplx(0.0, -0.5)), 0.0, 1e-12);

    std::optional<MajoranaMonomial> m45 = findTerm(poly, {4, 5});
    ASSERT_TRUE(m45);
    EXPECT_NEAR(std::abs(m45->coeff - cplx(0.0, -0.5)), 0.0, 1e-12);

    std::optional<MajoranaMonomial> m2345 = findTerm(poly, {2, 3, 4, 5});
    ASSERT_TRUE(m2345);
    EXPECT_NEAR(std::abs(m2345->coeff - cplx(0.5, 0.0)), 0.0, 1e-12);

    // Constant: +0.5 (from n0) + (-0.5) ... the two-body expansion gives
    // -2*(0.25) = -0.5 constant; total 0.
    EXPECT_NEAR(std::abs(poly.constantTerm()), 0.0, 1e-12);

    // Exactly the four listed monomials survive.
    size_t nonconst = 0;
    for (const auto &t : poly.terms())
        if (!t.indices.empty())
            ++nonconst;
    EXPECT_EQ(nonconst, 4u);
}

TEST(Majorana, RoundTripThroughFockMatrices)
{
    // The Majorana polynomial must represent the same operator as the
    // original ladder Hamiltonian.
    FermionHamiltonian hf = paperExample();
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(hf);
    FockSpace fock(3);
    ComplexMatrix lhs = fock.toMatrix(hf);
    ComplexMatrix rhs = fock.toMatrix(poly);
    EXPECT_LT(lhs.maxAbsDiff(rhs), 1e-12);
}

TEST(Majorana, HermitianConjugatePairsGiveRealPolynomial)
{
    FermionHamiltonian hf(2);
    hf.addWithConjugate(cplx{0.25, 0.5}, {create(0), annihilate(1)});
    FockSpace fock(2);
    EXPECT_TRUE(fock.toMatrix(hf).isHermitian());
}

TEST(Majorana, RejectsTermBeyondLadderOperatorCap)
{
    // A 31-operator product would expand to 2^31 monomials. It must be
    // rejected, as the streaming preprocessor rejects it, not silently
    // dropped from the Hamiltonian.
    std::vector<FermionOp> ops;
    for (uint32_t i = 0; i < 31; ++i)
        ops.push_back(i % 2 ? annihilate(i % 4) : create(i % 4));
    FermionHamiltonian hf(4);
    hf.add(1.0, {create(0), annihilate(0)});
    hf.add(0.5, ops);
    EXPECT_THROW(MajoranaPolynomial::fromFermion(hf), std::invalid_argument);
    EXPECT_THROW(refPreprocess(hf.terms()), std::invalid_argument);

    // The accumulator rejects the term before folding any of it. (A
    // full 30-op expansion, the longest accepted, is 2^30 combinations:
    // too slow for a unit test, so the oracle test stops at 16 ops.)
    static_assert(kMaxLadderOps == 30);
    StreamingMajoranaAccumulator acc(4);
    EXPECT_THROW(acc.add(hf.terms()[1]), std::invalid_argument);
    EXPECT_EQ(acc.termsConsumed(), 0u);
    EXPECT_EQ(acc.currentMonomials(), 0u);
}

TEST(Fock, LadderOperatorSigns)
{
    FockSpace fock(3);
    // a†_1 on |001> = (-1)^{n_0} |011> = -|011>.
    FermionTerm t{1.0, {create(1)}};
    auto res = fock.applyTerm(t, 0b001);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->state, 0b011u);
    EXPECT_NEAR(res->amplitude.real(), -1.0, 1e-12);

    // a_1 on |001> = 0.
    FermionTerm t2{1.0, {annihilate(1)}};
    EXPECT_FALSE(fock.applyTerm(t2, 0b001).has_value());

    // Number operator: a†_2 a_2 |100> = |100>.
    FermionTerm t3{1.0, {create(2), annihilate(2)}};
    auto res3 = fock.applyTerm(t3, 0b100);
    ASSERT_TRUE(res3.has_value());
    EXPECT_EQ(res3->state, 0b100u);
    EXPECT_NEAR(res3->amplitude.real(), 1.0, 1e-12);
}

TEST(Fock, CanonicalAnticommutationRelations)
{
    // {a_i, a†_j} = delta_ij as dense matrices, N = 3.
    const uint32_t n = 3;
    FockSpace fock(n);
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            FermionHamiltonian ai(n), adj(n);
            ai.add(1.0, {annihilate(i)});
            adj.add(1.0, {create(j)});
            ComplexMatrix ma = fock.toMatrix(ai);
            ComplexMatrix mc = fock.toMatrix(adj);
            ComplexMatrix anti =
                ma.multiply(mc).add(mc.multiply(ma));
            ComplexMatrix expect =
                ComplexMatrix::identity(ma.rows());
            if (i != j)
                expect = ComplexMatrix(ma.rows(), ma.rows());
            EXPECT_LT(anti.maxAbsDiff(expect), 1e-12)
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(Fock, VacuumExpectation)
{
    FermionHamiltonian hf = paperExample();
    FockSpace fock(3);
    // Both terms annihilate the vacuum.
    EXPECT_NEAR(std::abs(fock.vacuumExpectation(hf)), 0.0, 1e-12);

    FermionHamiltonian shifted(3);
    shifted.add(4.2, {}); // constant
    EXPECT_NEAR(fock.vacuumExpectation(shifted).real(), 4.2, 1e-12);
}

TEST(Fock, MajoranaAnticommutation)
{
    // {M_i, M_j} = 2 delta_ij on 2 modes via dense matrices.
    const uint32_t n = 2;
    FockSpace fock(n);
    std::vector<ComplexMatrix> m;
    for (uint32_t i = 0; i < 2 * n; ++i) {
        MajoranaPolynomial poly(n);
        poly.add(1.0, {i});
        m.push_back(fock.toMatrix(poly));
    }
    for (uint32_t i = 0; i < 2 * n; ++i) {
        for (uint32_t j = 0; j < 2 * n; ++j) {
            ComplexMatrix anti =
                m[i].multiply(m[j]).add(m[j].multiply(m[i]));
            ComplexMatrix expect(anti.rows(), anti.cols());
            if (i == j) {
                expect = ComplexMatrix::identity(anti.rows());
                expect = expect.add(expect); // 2I
            }
            EXPECT_LT(anti.maxAbsDiff(expect), 1e-12);
        }
    }
}

} // namespace
} // namespace hatt
