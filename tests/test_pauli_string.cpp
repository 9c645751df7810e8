/**
 * @file
 * Unit tests for the PauliString symplectic representation: single-qubit
 * algebra (all 16 products, exhaustively), phases, weights, commutation,
 * parsing/printing, and dense-matrix agreement.
 */

#include <gtest/gtest.h>

#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "pauli/pauli_string.hpp"

namespace hatt {
namespace {

ComplexMatrix
opMatrix(PauliOp op)
{
    ComplexMatrix m(2, 2);
    switch (op) {
      case PauliOp::I:
        m(0, 0) = 1;
        m(1, 1) = 1;
        break;
      case PauliOp::X:
        m(0, 1) = 1;
        m(1, 0) = 1;
        break;
      case PauliOp::Y:
        m(0, 1) = {0, -1};
        m(1, 0) = {0, 1};
        break;
      case PauliOp::Z:
        m(0, 0) = 1;
        m(1, 1) = -1;
        break;
    }
    return m;
}

TEST(PauliOpAlgebra, AllSixteenProductsMatchMatrices)
{
    const PauliOp ops[4] = {PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z};
    for (PauliOp a : ops) {
        for (PauliOp b : ops) {
            auto [c, phase] = pauliOpProduct(a, b);
            ComplexMatrix lhs = opMatrix(a).multiply(opMatrix(b));
            ComplexMatrix rhs = opMatrix(c);
            cplx ph = phaseFromExponent(phase);
            ComplexMatrix scaled(2, 2);
            for (size_t r = 0; r < 2; ++r)
                for (size_t col = 0; col < 2; ++col)
                    scaled(r, col) = ph * rhs(r, col);
            EXPECT_LT(lhs.maxAbsDiff(scaled), 1e-12)
                << pauliOpChar(a) << "*" << pauliOpChar(b);
        }
    }
}

TEST(PauliOpAlgebra, KnownPhases)
{
    // XY = iZ, YX = -iZ, YZ = iX, ZY = -iX, ZX = iY, XZ = -iY.
    auto check = [](PauliOp a, PauliOp b, PauliOp expect, int exponent) {
        auto [c, ph] = pauliOpProduct(a, b);
        EXPECT_EQ(c, expect);
        EXPECT_EQ(ph, exponent);
    };
    check(PauliOp::X, PauliOp::Y, PauliOp::Z, 1);
    check(PauliOp::Y, PauliOp::X, PauliOp::Z, 3);
    check(PauliOp::Y, PauliOp::Z, PauliOp::X, 1);
    check(PauliOp::Z, PauliOp::Y, PauliOp::X, 3);
    check(PauliOp::Z, PauliOp::X, PauliOp::Y, 1);
    check(PauliOp::X, PauliOp::Z, PauliOp::Y, 3);
    check(PauliOp::X, PauliOp::X, PauliOp::I, 0);
    check(PauliOp::Y, PauliOp::Y, PauliOp::I, 0);
    check(PauliOp::Z, PauliOp::Z, PauliOp::I, 0);
}

TEST(PauliString, LabelRoundTrip)
{
    PauliString s = PauliString::fromLabel("XYIZ");
    EXPECT_EQ(s.numQubits(), 4u);
    EXPECT_EQ(s.op(0), PauliOp::Z);
    EXPECT_EQ(s.op(1), PauliOp::I);
    EXPECT_EQ(s.op(2), PauliOp::Y);
    EXPECT_EQ(s.op(3), PauliOp::X);
    EXPECT_EQ(s.toString(), "XYIZ");
    EXPECT_EQ(s.toCompactString(), "X3Y2Z0");
    EXPECT_EQ(s.weight(), 3u);
    EXPECT_THROW(PauliString::fromLabel("AB"), std::invalid_argument);
}

TEST(PauliString, WordWiseLabelMatchesPerQubitReference)
{
    Rng rng(19);
    for (uint32_t n : {1u, 63u, 64u, 65u, 128u, 968u}) {
        for (int trial = 0; trial < 20; ++trial) {
            PauliString s(n);
            // Trial 0 is all-Y, the one lane value where x and z add up.
            for (uint32_t q = 0; q < n; ++q)
                s.setOp(q, trial == 0 ? PauliOp::Y
                                      : static_cast<PauliOp>(rng.nextInt(4)));
            std::string reference(n, '?');
            for (uint32_t q = 0; q < n; ++q)
                reference[n - 1 - q] = pauliOpChar(s.op(q));
            EXPECT_EQ(s.toString(), reference) << "n=" << n;
            std::string written(n + 2, '#');
            s.writeLabel(written.data() + 1);
            EXPECT_EQ(written, "#" + reference + "#") << "n=" << n;
        }
    }
}

TEST(PauliString, SetOpOverwrites)
{
    PauliString s(3);
    EXPECT_TRUE(s.isIdentity());
    s.setOp(1, PauliOp::Y);
    EXPECT_EQ(s.op(1), PauliOp::Y);
    s.setOp(1, PauliOp::Z);
    EXPECT_EQ(s.op(1), PauliOp::Z);
    s.setOp(1, PauliOp::I);
    EXPECT_TRUE(s.isIdentity());
}

TEST(PauliString, WeightAcrossWordBoundary)
{
    PauliString s(130);
    s.setOp(0, PauliOp::X);
    s.setOp(63, PauliOp::Y);
    s.setOp(64, PauliOp::Z);
    s.setOp(129, PauliOp::X);
    EXPECT_EQ(s.weight(), 4u);
    EXPECT_EQ(s.op(63), PauliOp::Y);
    EXPECT_EQ(s.op(64), PauliOp::Z);
}

TEST(PauliString, CommutationRules)
{
    auto x0 = PauliString::fromLabel("IX");
    auto z0 = PauliString::fromLabel("IZ");
    auto z1 = PauliString::fromLabel("ZI");
    auto xx = PauliString::fromLabel("XX");
    auto zz = PauliString::fromLabel("ZZ");
    EXPECT_FALSE(x0.commutesWith(z0));
    EXPECT_TRUE(x0.commutesWith(z1));
    EXPECT_TRUE(xx.commutesWith(zz)); // two anticommuting sites -> commute
    EXPECT_TRUE(x0.commutesWith(x0));
}

TEST(PauliString, MultiplyMatchesMatrices)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const uint32_t n = 1 + trial % 5;
        PauliString a(n), b(n);
        for (uint32_t q = 0; q < n; ++q) {
            a.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
            b.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
        }
        auto [c, phase] = PauliString::multiply(a, b);
        ComplexMatrix lhs = a.toMatrix().multiply(b.toMatrix());
        ComplexMatrix rhs = c.toMatrix();
        cplx ph = phaseFromExponent(phase);
        double diff = 0;
        for (size_t r = 0; r < lhs.rows(); ++r)
            for (size_t col = 0; col < lhs.cols(); ++col)
                diff = std::max(diff,
                                std::abs(lhs(r, col) - ph * rhs(r, col)));
        EXPECT_LT(diff, 1e-12) << a.toString() << " * " << b.toString();
    }
}

TEST(PauliString, MultiplyAssociativePhases)
{
    Rng rng(11);
    for (int trial = 0; trial < 100; ++trial) {
        const uint32_t n = 1 + trial % 7;
        PauliString a(n), b(n), c(n);
        for (uint32_t q = 0; q < n; ++q) {
            a.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
            b.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
            c.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
        }
        auto [ab, k_ab] = PauliString::multiply(a, b);
        auto [ab_c, k_abc1] = PauliString::multiply(ab, c);
        auto [bc, k_bc] = PauliString::multiply(b, c);
        auto [a_bc, k_abc2] = PauliString::multiply(a, bc);
        EXPECT_EQ(ab_c, a_bc);
        EXPECT_EQ((k_ab + k_abc1) % 4, (k_bc + k_abc2) % 4);
    }
}

TEST(PauliString, SquareIsIdentityNoPhase)
{
    Rng rng(3);
    for (int trial = 0; trial < 30; ++trial) {
        const uint32_t n = 1 + trial % 6;
        PauliString a(n);
        for (uint32_t q = 0; q < n; ++q)
            a.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
        auto [sq, phase] = PauliString::multiply(a, a);
        EXPECT_TRUE(sq.isIdentity());
        EXPECT_EQ(phase, 0);
    }
}

TEST(PauliString, ApplyToZeros)
{
    // Y|0> = i|1>: phase exponent 1, flip bit set.
    auto y0 = PauliString::fromLabel("IY");
    auto [flips, ph] = y0.applyToZeros();
    EXPECT_EQ(flips[0], 1ull);
    EXPECT_EQ(ph, 1);

    auto zz = PauliString::fromLabel("ZZ");
    auto [flips2, ph2] = zz.applyToZeros();
    EXPECT_EQ(flips2[0], 0ull);
    EXPECT_EQ(ph2, 0);
}

TEST(PauliString, DiagonalDetection)
{
    EXPECT_TRUE(PauliString::fromLabel("ZIZ").isDiagonal());
    EXPECT_FALSE(PauliString::fromLabel("ZIY").isDiagonal());
    EXPECT_TRUE(PauliString(5).isDiagonal());
}

TEST(PauliString, HashAndEquality)
{
    auto a = PauliString::fromLabel("XYZ");
    auto b = PauliString::fromLabel("XYZ");
    auto c = PauliString::fromLabel("XYX");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hashValue(), b.hashValue());
    EXPECT_NE(a, c);
}

} // namespace
} // namespace hatt
