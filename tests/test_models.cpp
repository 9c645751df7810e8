/**
 * @file
 * Tests for the physics-model generators: Hubbard lattice structure,
 * neutrino model structure and Hermiticity, synthetic chains.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fermion/fock.hpp"
#include "fermion/majorana.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "models/neutrino.hpp"

namespace hatt {
namespace {

TEST(Hubbard, ModeCountMatchesPaper)
{
    EXPECT_EQ(hubbardModel({2, 2, 1.0, 4.0}).numModes(), 8u);
    EXPECT_EQ(hubbardModel({2, 3, 1.0, 4.0}).numModes(), 12u);
    EXPECT_EQ(hubbardModel({4, 5, 1.0, 4.0}).numModes(), 40u);
}

TEST(Hubbard, TermCount)
{
    // 2x2 open lattice: 4 edges, 2 spins, 2 directions -> 16 hopping
    // terms + 4 on-site terms.
    FermionHamiltonian hf = hubbardModel({2, 2, 1.0, 4.0});
    EXPECT_EQ(hf.size(), 20u);
}

TEST(Hubbard, HermitianMatrix)
{
    FockSpace fock(8);
    EXPECT_TRUE(fock.toMatrix(hubbardModel({2, 2, 1.0, 4.0})).isHermitian());
}

TEST(Hubbard, VacuumEnergyZero)
{
    FockSpace fock(8);
    EXPECT_NEAR(
        std::abs(fock.vacuumExpectation(hubbardModel({2, 2, 1.0, 4.0}))),
        0.0, 1e-12);
}

TEST(Hubbard, PeriodicAddsWrapEdges)
{
    FermionHamiltonian open = hubbardModel({1, 4, 1.0, 4.0, false});
    FermionHamiltonian ring = hubbardModel({1, 4, 1.0, 4.0, true});
    EXPECT_GT(ring.size(), open.size());
}

TEST(Neutrino, ModeCountMatchesPaper)
{
    EXPECT_EQ(neutrinoModel({3, 2, 0.1}).numModes(), 12u); // 3x2F
    EXPECT_EQ(neutrinoModel({7, 3, 0.1}).numModes(), 42u); // 7x3F
}

TEST(Neutrino, HermitianByConstruction)
{
    FockSpace fock(8);
    NeutrinoParams p;
    p.sites = 2;
    p.flavors = 2;
    EXPECT_TRUE(fock.toMatrix(neutrinoModel(p)).isHermitian());
}

TEST(Neutrino, MajoranaPolynomialIsReasonable)
{
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(neutrinoModel({3, 2, 0.1}));
    EXPECT_GT(poly.size(), 20u);
    // Hermitian Hamiltonian: degree-2 monomials have imaginary
    // coefficients, degree-4 real (products of Majoranas).
    for (const auto &t : poly.terms()) {
        if (t.indices.size() == 2) {
            EXPECT_LT(std::abs(t.coeff.real()), 1e-10);
        }
        if (t.indices.size() == 4) {
            EXPECT_LT(std::abs(t.coeff.imag()), 1e-10);
        }
    }
}

TEST(Chains, MajoranaChainShape)
{
    MajoranaPolynomial poly = majoranaChain(5);
    EXPECT_EQ(poly.size(), 10u);
    for (const auto &t : poly.terms())
        EXPECT_EQ(t.indices.size(), 1u);
}

TEST(Chains, RandomPolynomialDeterministic)
{
    MajoranaPolynomial a = randomMajoranaPolynomial(5, 12, 3);
    MajoranaPolynomial b = randomMajoranaPolynomial(5, 12, 3);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(std::ranges::equal(a[i].indices, b[i].indices));
}

} // namespace
} // namespace hatt
