/**
 * @file
 * Tests for the circuit IR, Pauli-evolution synthesis (verified against
 * exact exponentials on the state-vector simulator), scheduling, and the
 * peephole optimizer (unitary preservation + actual gate savings,
 * gate-for-gate agreement with a straightforward copying reference run
 * to its fixpoint, running counts equal to a recount, and one pass
 * being a fixpoint).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/optimize.hpp"
#include "circuit/pauli_evolution.hpp"
#include "circuit/schedule.hpp"
#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace hatt {
namespace {

StateVector
randomState(uint32_t n, Rng &rng)
{
    StateVector psi(n);
    Circuit scramble(n);
    for (uint32_t q = 0; q < n; ++q) {
        scramble.h(static_cast<int>(q));
        scramble.rz(static_cast<int>(q), rng.nextDouble() * 3.0);
    }
    for (uint32_t q = 0; q + 1 < n; ++q)
        scramble.cnot(static_cast<int>(q), static_cast<int>(q + 1));
    psi.applyCircuit(scramble);
    return psi;
}

TEST(Circuit, CountsAndDepth)
{
    Circuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.cnot(1, 2);
    c.rz(2, 0.3);
    EXPECT_EQ(c.cnotCount(), 2u);
    EXPECT_EQ(c.singleQubitCount(), 2u);
    EXPECT_EQ(c.rawDepth(), 4u); // h, cx01, cx12, rz form a chain
}

TEST(Circuit, BasisCountsMergeSingleQubitRuns)
{
    Circuit c(2);
    c.h(0);
    c.s(0);
    c.rz(0, 0.1); // one merged U3
    c.cnot(0, 1);
    c.h(0);       // second U3 (run broken by the CNOT)
    c.h(1);       // third
    GateCounts counts = c.basisCounts();
    EXPECT_EQ(counts.cnot, 1u);
    EXPECT_EQ(counts.u3, 3u);
    EXPECT_EQ(counts.depth, 3u);
}

TEST(Circuit, AppendRequiresSameWidth)
{
    Circuit a(2), b(3);
    EXPECT_THROW(a.append(b), std::invalid_argument);
}

TEST(PauliEvolution, SingleTermMatchesExactExponential)
{
    Rng rng(5);
    for (const char *label : {"IXYZ", "ZZII", "YIIY", "XXXX", "IIIZ"}) {
        PauliString s = PauliString::fromLabel(label);
        const double alpha = 0.37;
        for (LadderStyle style : {LadderStyle::Chain, LadderStyle::Star}) {
            Circuit c = pauliTermCircuit(s, alpha, 4, style);
            StateVector psi = randomState(4, rng);
            StateVector expect = psi;
            expect.applyExpPauli(alpha, s);
            psi.applyCircuit(c);
            EXPECT_GT(StateVector::fidelity(psi, expect), 1.0 - 1e-10)
                << label;
        }
    }
}

TEST(PauliEvolution, TrotterOrderingMatchesSequentialExponentials)
{
    // One Trotter step = product of term exponentials in term order.
    PauliSum h(3);
    h.add(cplx{0.7, 0.0}, PauliString::fromLabel("ZZI"));
    h.add(cplx{-0.4, 0.0}, PauliString::fromLabel("IXX"));
    h.add(cplx{0.2, 0.0}, PauliString::fromLabel("YIY"));

    EvolutionOptions opt;
    opt.time = 0.31;
    Circuit c = evolutionCircuit(h, opt);

    Rng rng(17);
    StateVector psi = randomState(3, rng);
    StateVector expect = psi;
    for (const auto &t : h.terms())
        expect.applyExpPauli(t.coeff.real() * opt.time, t.string);
    psi.applyCircuit(c);
    EXPECT_GT(StateVector::fidelity(psi, expect), 1.0 - 1e-10);
}

TEST(PauliEvolution, TrotterConvergesToExactEvolution)
{
    // Error vs the true evolution should shrink as steps grow.
    PauliSum h(2);
    h.add(cplx{1.0, 0.0}, PauliString::fromLabel("ZZ"));
    h.add(cplx{0.8, 0.0}, PauliString::fromLabel("XI"));
    h.add(cplx{0.5, 0.0}, PauliString::fromLabel("IX"));

    // Exact evolution via repeated tiny Trotter steps as reference.
    Rng rng(23);
    StateVector init = randomState(2, rng);
    StateVector exact = init;
    const double t = 0.8;
    const int fine = 4096;
    for (int s = 0; s < fine; ++s)
        for (const auto &term : h.terms())
            exact.applyExpPauli(term.coeff.real() * t / fine,
                                term.string);

    double err_prev = 1e9;
    for (uint32_t steps : {1u, 4u, 16u}) {
        EvolutionOptions opt;
        opt.time = t;
        opt.trotterSteps = steps;
        StateVector psi = init;
        psi.applyCircuit(evolutionCircuit(h, opt));
        double err = 1.0 - StateVector::fidelity(psi, exact);
        EXPECT_LT(err, err_prev + 1e-12);
        err_prev = err;
    }
    // First-order Trotter: infidelity ~ (t^2/steps)^2 scale; at 16 steps
    // of t=0.8 the residual is a few 1e-4.
    EXPECT_LT(err_prev, 2e-3);
}

TEST(PauliEvolution, GateCountFormula)
{
    // A weight-w term costs 2(w-1) CNOTs and one RZ.
    PauliString s = PauliString::fromLabel("XYZI");
    Circuit c = pauliTermCircuit(s, 0.5, 4);
    EXPECT_EQ(c.cnotCount(), 4u);
    uint64_t rz = 0;
    for (const auto &g : c.gates())
        rz += g.kind == GateKind::RZ;
    EXPECT_EQ(rz, 1u);
}

TEST(Schedule, LexicographicGroupsSimilarTerms)
{
    PauliSum h(2);
    h.add(cplx{1.0, 0.0}, PauliString::fromLabel("XX"));
    h.add(cplx{1.0, 0.0}, PauliString::fromLabel("ZZ"));
    h.add(cplx{1.0, 0.0}, PauliString::fromLabel("XX"));
    PauliSum ordered = scheduleTerms(h, ScheduleKind::Lexicographic);
    ASSERT_EQ(ordered.size(), 3u);
    // The two XX copies must end up adjacent.
    EXPECT_TRUE(ordered.terms()[0].string == ordered.terms()[1].string ||
                ordered.terms()[1].string == ordered.terms()[2].string);
}

TEST(Schedule, ReorderingReducesOptimizedGateCount)
{
    // Alternating conflicting terms (X vs Z on the same qubits) compile
    // worse than grouped ones: the basis changes block CNOT cancellation
    // until equal terms are brought together.
    PauliSum h(4);
    for (int rep = 0; rep < 4; ++rep) {
        h.add(cplx{0.3, 0.0}, PauliString::fromLabel("ZZII"));
        h.add(cplx{0.3, 0.0}, PauliString::fromLabel("ZXII"));
    }
    auto cost = [](const PauliSum &sum) {
        Circuit c = evolutionCircuit(sum);
        optimizeCircuit(c);
        return c.cnotCount();
    };
    uint64_t naive = cost(h);
    uint64_t scheduled = cost(scheduleTerms(h, ScheduleKind::GreedyOverlap));
    EXPECT_LT(scheduled, naive);
}

TEST(Optimize, CancelsTrivialPatterns)
{
    Circuit c(2);
    c.h(0);
    c.h(0);
    c.s(1);
    c.sdg(1);
    c.cnot(0, 1);
    c.cnot(0, 1);
    c.x(0);
    optimizeCircuit(c);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::X);
}

TEST(Optimize, MergesRotations)
{
    Circuit c(1);
    c.rz(0, 0.4);
    c.rz(0, -0.4);
    optimizeCircuit(c);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Optimize, DoesNotCancelAcrossBlockingGates)
{
    Circuit c(2);
    c.h(0);
    c.cnot(0, 1);
    c.h(0);
    optimizeCircuit(c);
    EXPECT_EQ(c.size(), 3u);
}

TEST(Optimize, PreservesUnitaryOnRandomCircuits)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const uint32_t n = 3;
        Circuit c(n);
        for (int g = 0; g < 60; ++g) {
            switch (rng.nextInt(6)) {
              case 0: c.h(static_cast<int>(rng.nextInt(n))); break;
              case 1: c.s(static_cast<int>(rng.nextInt(n))); break;
              case 2: c.sdg(static_cast<int>(rng.nextInt(n))); break;
              case 3: c.x(static_cast<int>(rng.nextInt(n))); break;
              case 4:
                c.rz(static_cast<int>(rng.nextInt(n)),
                     rng.nextDouble() * 2.0 - 1.0);
                break;
              default: {
                int a = static_cast<int>(rng.nextInt(n));
                int b = static_cast<int>(rng.nextInt(n));
                if (a != b)
                    c.cnot(a, b);
                break;
              }
            }
        }
        Circuit optimized = c;
        optimizeCircuit(optimized);

        StateVector before = randomState(n, rng);
        StateVector after = before;
        before.applyCircuit(c);
        after.applyCircuit(optimized);
        EXPECT_GT(StateVector::fidelity(before, after), 1.0 - 1e-10)
            << "trial " << trial;
    }
}

TEST(Optimize, ShrinksEvolutionCircuits)
{
    // Shared low-qubit prefixes: chain ladders start identically, so the
    // closing ladder of one term cancels into the opening of the next.
    PauliSum h(4);
    h.add(cplx{0.5, 0.0}, PauliString::fromLabel("IIZZ"));
    h.add(cplx{0.5, 0.0}, PauliString::fromLabel("IZZZ"));
    h.add(cplx{0.5, 0.0}, PauliString::fromLabel("ZZZZ"));
    Circuit c = evolutionCircuit(scheduleTerms(h, ScheduleKind::Lexicographic));
    size_t before = c.size();
    optimizeCircuit(c);
    EXPECT_LT(c.size(), before);
}

// ------------------------------------------- optimizer reference oracle

bool
referenceInversePair(const Gate &a, const Gate &b)
{
    if (a.q0 != b.q0)
        return false;
    switch (a.kind) {
      case GateKind::H: return b.kind == GateKind::H;
      case GateKind::X: return b.kind == GateKind::X;
      case GateKind::S: return b.kind == GateKind::Sdg;
      case GateKind::Sdg: return b.kind == GateKind::S;
      default: return false;
    }
}

/** The straightforward pass: copy the gates, one index stack per wire,
    rebuild the circuit from the survivors. */
uint64_t
referenceCancelPass(Circuit &c)
{
    const uint32_t nq = c.numQubits();
    std::vector<Gate> gates = c.gates();
    std::vector<bool> removed(gates.size(), false);
    std::vector<std::vector<size_t>> wire(nq);

    uint64_t cancelled = 0;
    for (size_t i = 0; i < gates.size(); ++i) {
        Gate &g = gates[i];
        if (g.kind == GateKind::CNOT) {
            auto &wc = wire[g.q0];
            auto &wt = wire[g.q1];
            if (!wc.empty() && !wt.empty() && wc.back() == wt.back()) {
                const Gate &prev = gates[wc.back()];
                if (prev.kind == GateKind::CNOT && prev.q0 == g.q0 &&
                    prev.q1 == g.q1) {
                    removed[wc.back()] = true;
                    removed[i] = true;
                    wc.pop_back();
                    wt.pop_back();
                    cancelled += 2;
                    continue;
                }
            }
            wc.push_back(i);
            wt.push_back(i);
        } else {
            auto &w = wire[g.q0];
            if (!w.empty()) {
                Gate &prev = gates[w.back()];
                if (!prev.isTwoQubit() && referenceInversePair(prev, g)) {
                    removed[w.back()] = true;
                    removed[i] = true;
                    w.pop_back();
                    cancelled += 2;
                    continue;
                }
                if (!prev.isTwoQubit() && prev.kind == GateKind::RZ &&
                    g.kind == GateKind::RZ) {
                    prev.angle += g.angle;
                    removed[i] = true;
                    ++cancelled;
                    if (std::abs(std::remainder(prev.angle,
                                                4.0 * M_PI)) < 1e-14) {
                        removed[w.back()] = true;
                        w.pop_back();
                        ++cancelled;
                    }
                    continue;
                }
            }
            w.push_back(i);
        }
    }

    Circuit out(nq);
    for (size_t i = 0; i < gates.size(); ++i)
        if (!removed[i])
            out.push(gates[i]);
    c = std::move(out);
    return cancelled;
}

/** Reference passes until one removes nothing. */
void
referenceOptimizeToFixpoint(Circuit &c)
{
    while (referenceCancelPass(c) != 0) {
    }
}

::testing::AssertionResult
sameGates(const Circuit &expected, const Circuit &actual)
{
    if (expected.numQubits() != actual.numQubits())
        return ::testing::AssertionFailure() << "width differs";
    const auto &a = expected.gates();
    const auto &b = actual.gates();
    auto describe = [](const Gate &g) {
        return "kind " + std::to_string(static_cast<int>(g.kind)) + " q" +
               std::to_string(g.q0) + "," + std::to_string(g.q1) +
               " angle " + std::to_string(g.angle);
    };
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i].kind != b[i].kind || a[i].q0 != b[i].q0 ||
            a[i].q1 != b[i].q1 ||
            std::bit_cast<uint64_t>(a[i].angle) !=
                std::bit_cast<uint64_t>(b[i].angle))
            return ::testing::AssertionFailure()
                   << "gate " << i << ": expected " << describe(a[i])
                   << ", got " << describe(b[i]);
    }
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "sizes differ: " << a.size() << " vs " << b.size();
    return ::testing::AssertionSuccess();
}

/** A random 1q gate other than RZ. */
Gate
randomCliffordGate(Rng &rng, int q)
{
    static const GateKind kinds[] = {GateKind::H, GateKind::S,
                                     GateKind::Sdg, GateKind::X};
    return {kinds[rng.nextInt(4)], q, -1, 0.0};
}

Gate
inverseOf(const Gate &g)
{
    Gate inv = g;
    if (g.kind == GateKind::S)
        inv.kind = GateKind::Sdg;
    else if (g.kind == GateKind::Sdg)
        inv.kind = GateKind::S;
    else if (g.kind == GateKind::RZ)
        inv.angle = -g.angle;
    return inv;
}

/**
 * A circuit biased toward what breaks per-wire stack logic: nested
 * inverse pairs, CNOT pairs split by a 1q gate on one wire (or by
 * unrelated CNOTs), and RZ chains that sum to a multiple of 4*pi.
 */
Circuit
stackStressCircuit(Rng &rng)
{
    const uint32_t n = 3 + static_cast<uint32_t>(rng.nextInt(28));
    const int nq = static_cast<int>(n);
    Circuit c(n);
    auto wire = [&] { return static_cast<int>(rng.nextInt(n)); };
    auto pair = [&](int &a, int &b) {
        a = wire();
        do {
            b = wire();
        } while (b == a);
    };
    const int blocks = 20 + static_cast<int>(rng.nextInt(60));
    for (int blk = 0; blk < blocks; ++blk) {
        switch (rng.nextInt(8)) {
          case 0: { // nested inverse pairs on one wire
            const int q = wire();
            std::vector<Gate> open;
            const int depth = 1 + static_cast<int>(rng.nextInt(4));
            for (int d = 0; d < depth; ++d) {
                Gate g = rng.chance(0.25)
                             ? Gate{GateKind::RZ, q, -1,
                                    rng.nextDouble() * 6.0 - 3.0}
                             : randomCliffordGate(rng, q);
                open.push_back(g);
                c.push(g);
            }
            if (rng.chance(0.3))
                c.cnot(q, (q + 1) % nq); // sometimes a blocker
            for (size_t d = open.size(); d-- > 0;)
                c.push(inverseOf(open[d]));
            break;
          }
          case 1: { // CNOT pair with a 1q gate on one wire in between
            int a, b;
            pair(a, b);
            c.cnot(a, b);
            const int on = rng.chance(0.5) ? a : b;
            if (rng.chance(0.5))
                c.push(randomCliffordGate(rng, on));
            else
                c.rz(on, rng.nextDouble());
            c.cnot(a, b);
            break;
          }
          case 2: { // nested CNOT pairs, optionally split by unrelated ones
            int a, b;
            pair(a, b);
            c.cnot(a, b);
            int x, y;
            pair(x, y);
            c.cnot(x, y);
            if (rng.chance(0.5))
                c.cnot(x, y);
            c.cnot(a, b);
            if (rng.chance(0.3))
                c.cnot(b, a); // reversed pair never cancels
            break;
          }
          case 3: { // RZ chain summing to a multiple of 4 pi
            const int q = wire();
            const int len = 2 + static_cast<int>(rng.nextInt(4));
            const double goal =
                4.0 * M_PI * static_cast<double>(rng.nextInt(3));
            double sum = 0.0;
            for (int k = 0; k + 1 < len; ++k) {
                const double t = rng.nextDouble() * 4.0 - 2.0;
                c.rz(q, t);
                sum += t;
            }
            c.rz(q, goal - sum);
            break;
          }
          case 4: { // exact quarter turns: pi * k lands on 4 pi exactly
            const int q = wire();
            const int len = 2 + static_cast<int>(rng.nextInt(5));
            for (int k = 0; k < len; ++k)
                c.rz(q, M_PI);
            break;
          }
          case 5: { // plain random gate
            if (rng.chance(0.5)) {
                int a, b;
                pair(a, b);
                c.cnot(a, b);
            } else {
                c.push(randomCliffordGate(rng, wire()));
            }
            break;
          }
          case 7: { // a CNOT cascade and its mirror, sometimes split
            std::vector<int> wires;
            const int len = 3 + static_cast<int>(rng.nextInt(5));
            for (int k = 0; k < len; ++k) {
                const int w = wire();
                if (wires.empty() || w != wires.back())
                    wires.push_back(w);
            }
            for (size_t k = 0; k + 1 < wires.size(); ++k)
                c.cnot(wires[k], wires[k + 1]);
            if (rng.chance(0.3))
                c.rz(wires.back(), rng.nextDouble());
            for (size_t k = wires.size() - 1; k-- > 0;)
                c.cnot(wires[k], wires[k + 1]);
            break;
          }
          default: { // an interrupted pair on one wire
            const int q = wire();
            Gate g = randomCliffordGate(rng, q);
            c.push(g);
            c.push(randomCliffordGate(rng, q));
            c.push(inverseOf(g));
            break;
          }
        }
    }
    return c;
}

TEST(Optimize, MatchesCopyingReferenceGateForGate)
{
    // One optimizeCircuit pass equals the reference run to its fixpoint,
    // and CancellationStacks' running counts equal basisCounts() of it.
    uint64_t removed = 0;
    for (uint64_t seed = 0; seed < 250; ++seed) {
        Rng rng(9000 + seed);
        const Circuit input = stackStressCircuit(rng);
        Circuit expected = input;
        Circuit actual = input;
        referenceOptimizeToFixpoint(expected);
        const uint64_t got = optimizeCircuit(actual);
        EXPECT_EQ(got, input.size() - expected.size()) << "seed " << seed;
        EXPECT_TRUE(sameGates(expected, actual)) << "seed " << seed;
        removed += got;

        // The counts kept while pushing equal a recount of the survivors.
        CancellationStacks stacks(input.numQubits());
        for (const Gate &g : input.gates())
            stacks.push(g);
        const GateCounts want = expected.basisCounts();
        const GateCounts kept = stacks.counts();
        EXPECT_EQ(kept.cnot, want.cnot) << "seed " << seed;
        EXPECT_EQ(kept.u3, want.u3) << "seed " << seed;
        EXPECT_EQ(kept.depth, want.depth) << "seed " << seed;
    }
    EXPECT_GT(removed, 0u);
}

TEST(Optimize, OnePassIsAFixpoint)
{
    // A gate that survives a pass met, on each wire, the gate that ends
    // up as its predecessor, so a second pass finds nothing. The stress
    // circuits carry RZ chains summing to 4 pi, nested inverse 1q
    // pairs and CNOT cascades with their mirrors.
    uint64_t removed = 0;
    for (uint64_t seed = 0; seed < 4000; ++seed) {
        Rng rng(40000 + seed);
        Circuit c = stackStressCircuit(rng);
        removed += optimizeCircuit(c);
        Circuit again = c;
        ASSERT_EQ(referenceCancelPass(again), 0u) << "seed " << seed;
        ASSERT_EQ(optimizeCircuit(c), 0u) << "seed " << seed;
    }
    EXPECT_GT(removed, 10000u);
}

// ------------------------------------------- synthesis reference oracle

/** Term synthesis reading every qubit through op(q). */
void
referenceEmitTerm(Circuit &c, const PauliString &s, double alpha,
                  LadderStyle style)
{
    std::vector<int> support;
    for (uint32_t q = 0; q < s.numQubits(); ++q)
        if (s.op(q) != PauliOp::I)
            support.push_back(static_cast<int>(q));
    if (support.empty())
        return;
    for (int q : support) {
        PauliOp op = s.op(static_cast<uint32_t>(q));
        if (op == PauliOp::X) {
            c.h(q);
        } else if (op == PauliOp::Y) {
            c.sdg(q);
            c.h(q);
        }
    }
    const int target = support.back();
    auto ladder = [&](size_t i) {
        c.cnot(support[i],
               style == LadderStyle::Chain ? support[i + 1] : target);
    };
    for (size_t i = 0; i + 1 < support.size(); ++i)
        ladder(i);
    c.rz(target, 2.0 * alpha);
    for (size_t i = support.size() - 1; i-- > 0;)
        ladder(i);
    for (int q : support) {
        PauliOp op = s.op(static_cast<uint32_t>(q));
        if (op == PauliOp::X) {
            c.h(q);
        } else if (op == PauliOp::Y) {
            c.h(q);
            c.s(q);
        }
    }
}

TEST(PauliEvolution, MatchesPerQubitReferenceOnWideStrings)
{
    // Up to three packed words per string, sparse and dense supports.
    for (uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(500 + seed);
        const uint32_t n = 3 + static_cast<uint32_t>(rng.nextInt(190));
        const double density = 0.02 + 0.5 * rng.nextDouble();
        PauliSum h(n);
        h.add(cplx{0.3, 0.0}, PauliString(n)); // identity: skipped
        for (int t = 0; t < 12; ++t) {
            std::vector<PauliOp> ops(n, PauliOp::I);
            for (auto &op : ops)
                if (rng.chance(density))
                    op = static_cast<PauliOp>(1 + rng.nextInt(3));
            h.add(cplx{rng.nextDouble() - 0.5, 0.0},
                  PauliString::fromOps(ops));
        }
        for (LadderStyle style : {LadderStyle::Chain, LadderStyle::Star}) {
            EvolutionOptions opt;
            opt.ladder = style;
            opt.trotterSteps = 2;
            Circuit expected(n);
            for (uint32_t step = 0; step < opt.trotterSteps; ++step)
                for (const auto &term : h.terms())
                    if (!term.string.isIdentity())
                        referenceEmitTerm(expected, term.string,
                                          term.coeff.real() * 0.5, style);
            EXPECT_TRUE(sameGates(expected, evolutionCircuit(h, opt)))
                << "seed " << seed;
        }
    }
}

} // namespace
} // namespace hatt
