/**
 * @file
 * Tests for the common substrate: Jacobi eigensolver, Hermitian
 * eigenvalues via the real embedding, inverse square roots, the table
 * printer, RNG determinism, and the Deadline run budget.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/deadline.hpp"
#include "common/linalg.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace hatt {
namespace {

double benchmarkDoNotOptimizeSink = 0.0;

TEST(Linalg, JacobiDiagonalizesKnownMatrix)
{
    // [[2,1],[1,2]] has eigenvalues 1 and 3.
    RealMatrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 2;
    EigenSystem es = jacobiEigenSymmetric(a);
    EXPECT_NEAR(es.values[0], 1.0, 1e-12);
    EXPECT_NEAR(es.values[1], 3.0, 1e-12);
}

TEST(Linalg, JacobiReconstructsMatrix)
{
    Rng rng(77);
    const size_t n = 8;
    RealMatrix a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = rng.nextGaussian();
    EigenSystem es = jacobiEigenSymmetric(a);
    // A = V D V^T
    RealMatrix d(n, n);
    for (size_t i = 0; i < n; ++i)
        d(i, i) = es.values[i];
    RealMatrix rebuilt =
        es.vectors.multiply(d).multiply(es.vectors.transpose());
    EXPECT_LT(a.maxAbsDiff(rebuilt), 1e-9);
    // Eigenvalues ascending.
    for (size_t i = 0; i + 1 < n; ++i)
        EXPECT_LE(es.values[i], es.values[i + 1] + 1e-12);
}

TEST(Linalg, SymmetricInverseSqrt)
{
    RealMatrix a(2, 2);
    a(0, 0) = 4;
    a(1, 1) = 9;
    RealMatrix x = symmetricInverseSqrt(a);
    EXPECT_NEAR(x(0, 0), 0.5, 1e-12);
    EXPECT_NEAR(x(1, 1), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(x(0, 1), 0.0, 1e-12);

    // X * A * X = I for a random SPD matrix.
    Rng rng(5);
    const size_t n = 5;
    RealMatrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            m(i, j) = rng.nextGaussian();
    RealMatrix spd = m.multiply(m.transpose());
    for (size_t i = 0; i < n; ++i)
        spd(i, i) += n; // well conditioned
    RealMatrix xs = symmetricInverseSqrt(spd);
    RealMatrix ident = xs.multiply(spd).multiply(xs);
    EXPECT_LT(ident.maxAbsDiff(RealMatrix::identity(n)), 1e-9);
}

TEST(Linalg, HermitianEigenvaluesPauliY)
{
    ComplexMatrix y(2, 2);
    y(0, 1) = {0.0, -1.0};
    y(1, 0) = {0.0, 1.0};
    ASSERT_TRUE(y.isHermitian());
    std::vector<double> vals = hermitianEigenvalues(y);
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_NEAR(vals[0], -1.0, 1e-10);
    EXPECT_NEAR(vals[1], 1.0, 1e-10);
}

TEST(Linalg, ComplexMatrixOps)
{
    ComplexMatrix a(2, 2);
    a(0, 0) = {1, 2};
    a(0, 1) = {0, 1};
    a(1, 0) = {3, 0};
    a(1, 1) = {0, -1};
    ComplexMatrix adj = a.adjoint();
    EXPECT_EQ(adj(0, 0), (cplx{1, -2}));
    EXPECT_EQ(adj(1, 0), (cplx{0, -1}));
    cplx tr = a.trace();
    EXPECT_EQ(tr, (cplx{1, 1}));
    ComplexMatrix ident = ComplexMatrix::identity(2);
    EXPECT_LT(a.multiply(ident).maxAbsDiff(a), 1e-15);
}

TEST(Types, PhaseFromExponent)
{
    EXPECT_EQ(phaseFromExponent(0), (cplx{1, 0}));
    EXPECT_EQ(phaseFromExponent(1), (cplx{0, 1}));
    EXPECT_EQ(phaseFromExponent(2), (cplx{-1, 0}));
    EXPECT_EQ(phaseFromExponent(3), (cplx{0, -1}));
    EXPECT_EQ(phaseFromExponent(4), (cplx{1, 0}));
    EXPECT_EQ(phaseFromExponent(-1), (cplx{0, -1}));
    EXPECT_EQ(phaseFromExponent(-6), (cplx{-1, 0}));
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.nextInt(17);
        uint64_t vb = b.nextInt(17);
        EXPECT_EQ(va, vb);
        EXPECT_LT(va, 17u);
    }
    double d = a.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
}

TEST(Table, AlignsAndFormats)
{
    TablePrinter t({"A", "LongHeader"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy"}); // short row tolerated
    std::ostringstream ss;
    t.print(ss);
    std::string out = ss.str();
    EXPECT_NE(out.find("LongHeader"), std::string::npos);
    EXPECT_NE(out.find("yyyy"), std::string::npos);
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(static_cast<long long>(42)), "42");
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink += std::sqrt(static_cast<double>(i));
    benchmarkDoNotOptimizeSink = sink;
    EXPECT_GT(t.seconds(), 0.0);
    t.reset();
    EXPECT_LT(t.seconds(), 1.0);
}

uint64_t
expirations()
{
    const auto counters = metrics::snapshot().counters;
    const auto it = counters.find("deadline.expirations");
    return it == counters.end() ? 0 : it->second;
}

TEST(Deadline, UnboundedNeverExpires)
{
    metrics::reset();
    const Deadline unbounded;
    EXPECT_FALSE(unbounded.expired());
    EXPECT_NO_THROW(unbounded.check());
    const Deadline distant = Deadline::after(3600.0);
    EXPECT_FALSE(distant.expired());
    EXPECT_NO_THROW(distant.check());
    EXPECT_EQ(expirations(), 0u);
}

TEST(Deadline, BudgetBeyondClockRangeIsUnbounded)
{
    // steady_clock nanoseconds overflow past ~9.2e9 s; such a budget
    // must not wrap into an already-expired deadline.
    for (double seconds : {1e10, 1e300}) {
        const Deadline far = Deadline::after(seconds);
        EXPECT_FALSE(far.expired()) << seconds;
        EXPECT_NO_THROW(far.check()) << seconds;
    }
}

TEST(Deadline, SpentBudgetExpiresAndCheckThrowsOnce)
{
    for (double seconds : {0.0, -1.0}) {
        metrics::reset();
        const Deadline spent = Deadline::after(seconds);
        EXPECT_TRUE(spent.expired()) << seconds;
        EXPECT_EQ(expirations(), 0u) << "a poll is not counted";
        EXPECT_THROW(spent.check(), DeadlineExceededError) << seconds;
        EXPECT_EQ(expirations(), 1u) << seconds;
    }
}

} // namespace
} // namespace hatt
