/**
 * @file
 * Tests for the coupling maps and the SWAP router: device shapes,
 * coupling compliance after routing, unitary preservation up to the
 * final layout permutation, all-to-all being a routing no-op, and
 * gate-for-gate agreement with a per-hop reference router.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "circuit/pauli_evolution.hpp"
#include "common/rng.hpp"
#include "route/router.hpp"
#include "sim/statevector.hpp"

namespace hatt {
namespace {

TEST(CouplingMap, DeviceShapes)
{
    CouplingMap montreal = CouplingMap::ibmMontreal();
    EXPECT_EQ(montreal.numQubits(), 27u);
    EXPECT_TRUE(montreal.connected());
    for (int q = 0; q < 27; ++q)
        EXPECT_LE(montreal.neighbors(q).size(), 3u); // heavy-hex degree

    CouplingMap manhattan = CouplingMap::ibmManhattan();
    EXPECT_EQ(manhattan.numQubits(), 65u);
    EXPECT_TRUE(manhattan.connected());

    CouplingMap syc = CouplingMap::sycamore();
    EXPECT_EQ(syc.numQubits(), 54u);
    EXPECT_TRUE(syc.connected());
    for (uint32_t q = 0; q < 54; ++q)
        EXPECT_LE(syc.neighbors(static_cast<int>(q)).size(), 4u);
}

TEST(CouplingMap, DistancesAndHops)
{
    CouplingMap line = CouplingMap::line(5);
    EXPECT_EQ(line.distance(0, 4), 4);
    EXPECT_EQ(line.nextHop(0, 4), 1);
    EXPECT_TRUE(line.adjacent(2, 3));
    EXPECT_FALSE(line.adjacent(0, 2));
}

TEST(Router, RoutedCircuitRespectsCoupling)
{
    // All-pairs CNOTs on a line force swapping.
    Circuit logical(4);
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b)
            if (a != b)
                logical.cnot(a, b);
    CouplingMap device = CouplingMap::line(4);
    RoutedCircuit routed = routeCircuit(logical, device);
    EXPECT_TRUE(respectsCoupling(routed.circuit, device));
    EXPECT_GT(routed.swapsInserted, 0u);
}

TEST(Router, AllToAllInsertsNoSwaps)
{
    Circuit logical(5);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
            logical.cnot(a, b);
    RoutedCircuit routed =
        routeCircuit(logical, CouplingMap::allToAll(5));
    EXPECT_EQ(routed.swapsInserted, 0u);
    EXPECT_EQ(routed.circuit.cnotCount(), logical.cnotCount());
}

TEST(Router, PreservesSemanticsUpToLayout)
{
    // Simulate logical circuit and routed circuit; amplitudes must agree
    // after permuting qubits by the final layout.
    Rng rng(41);
    Circuit logical(3);
    logical.h(0);
    logical.cnot(0, 2);
    logical.rz(2, 0.9);
    logical.cnot(1, 2);
    logical.h(2);
    logical.cnot(2, 0);

    CouplingMap device = CouplingMap::line(3);
    RoutedCircuit routed = routeCircuit(logical, device);
    ASSERT_TRUE(respectsCoupling(routed.circuit, device));

    StateVector a(3);
    a.applyCircuit(logical);
    StateVector b(3);
    b.applyCircuit(routed.circuit);

    // Remap basis indices: logical qubit l lives at physical
    // routed.final[l].
    std::vector<cplx> remapped(8);
    for (uint64_t phys = 0; phys < 8; ++phys) {
        uint64_t logical_idx = 0;
        for (int l = 0; l < 3; ++l)
            if (phys & (uint64_t{1} << routed.final[l]))
                logical_idx |= uint64_t{1} << l;
        remapped[logical_idx] = b.amplitude(phys);
    }
    cplx inner{};
    for (uint64_t i = 0; i < 8; ++i)
        inner += std::conj(a.amplitude(i)) * remapped[i];
    EXPECT_NEAR(std::abs(inner), 1.0, 1e-10);
}

TEST(Router, GreedyLayoutIsInjective)
{
    Circuit logical(6);
    for (int i = 0; i + 1 < 6; ++i)
        logical.cnot(i, i + 1);
    CouplingMap device = CouplingMap::ibmMontreal();
    std::vector<int> layout = greedyLayout(logical, device);
    std::vector<bool> used(device.numQubits(), false);
    for (int p : layout) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, static_cast<int>(device.numQubits()));
        EXPECT_FALSE(used[p]);
        used[p] = true;
    }
}

TEST(Router, ThrowsWhenDeviceTooSmall)
{
    Circuit logical(10);
    EXPECT_THROW(routeCircuit(logical, CouplingMap::line(4)),
                 std::invalid_argument);
}

// ---------------------------------------------- router reference oracle

/** First neighbour of @p a (adjacency order) one step closer to @p b,
    searched through the checked distance() on every call. */
int
referenceHop(const CouplingMap &device, int a, int b)
{
    const int d = device.distance(a, b);
    for (int v : device.neighbors(a))
        if (device.distance(v, b) == d - 1)
            return v;
    ADD_FAILURE() << "no shortest-path step " << a << " -> " << b;
    return a;
}

/** The router walked one checked hop at a time, one push per gate. */
RoutedCircuit
referenceRoute(const Circuit &logical, const CouplingMap &device)
{
    RoutedCircuit out;
    out.initial = greedyLayout(logical, device);
    std::vector<int> layout = out.initial;
    std::vector<int> occupant(device.numQubits(), -1);
    for (size_t l = 0; l < layout.size(); ++l)
        occupant[layout[l]] = static_cast<int>(l);

    Circuit routed(device.numQubits());
    for (const auto &g : logical.gates()) {
        if (!g.isTwoQubit()) {
            Gate phys = g;
            phys.q0 = layout[g.q0];
            routed.push(phys);
            continue;
        }
        while (device.distance(layout[g.q0], layout[g.q1]) != 1) {
            const int pa = layout[g.q0];
            const int pb = referenceHop(device, pa, layout[g.q1]);
            routed.cnot(pa, pb);
            routed.cnot(pb, pa);
            routed.cnot(pa, pb);
            const int la = occupant[pa], lb = occupant[pb];
            occupant[pa] = lb;
            occupant[pb] = la;
            if (la >= 0)
                layout[la] = pb;
            if (lb >= 0)
                layout[lb] = pa;
            ++out.swapsInserted;
        }
        routed.cnot(layout[g.q0], layout[g.q1]);
    }
    out.circuit = std::move(routed);
    out.final = layout;
    return out;
}

TEST(Router, MatchesPerHopReferenceOnDevices)
{
    const CouplingMap devices[] = {
        CouplingMap::ibmMontreal(), CouplingMap::ibmManhattan(),
        CouplingMap::line(27), CouplingMap::grid(6, 5)};
    uint64_t swaps = 0;
    for (const CouplingMap &device : devices) {
        const int np = static_cast<int>(device.numQubits());
        // The table-driven hop agrees with the searched one everywhere.
        for (int a = 0; a < np; ++a)
            for (int b = 0; b < np; ++b) {
                const int want = a == b ? a : referenceHop(device, a, b);
                ASSERT_EQ(device.nextHop(a, b), want)
                    << device.name() << " " << a << " -> " << b;
                ASSERT_EQ(device.adjacent(a, b),
                          device.distance(a, b) == 1);
            }
        for (uint64_t seed = 0; seed < 60; ++seed) {
            Rng rng(700 + seed);
            const uint32_t nl = 2 + static_cast<uint32_t>(rng.nextInt(
                                        std::min<uint32_t>(np, 30) - 1));
            Circuit logical(nl);
            const int gates = 20 + static_cast<int>(rng.nextInt(200));
            for (int k = 0; k < gates; ++k) {
                const int a = static_cast<int>(rng.nextInt(nl));
                const int b = static_cast<int>(rng.nextInt(nl));
                if (a != b && rng.chance(0.6))
                    logical.cnot(a, b);
                else if (rng.chance(0.5))
                    logical.rz(a, rng.nextDouble());
                else
                    logical.h(a);
            }
            SCOPED_TRACE(device.name() + " seed " + std::to_string(seed));
            const RoutedCircuit want = referenceRoute(logical, device);
            const RoutedCircuit got = routeCircuit(logical, device);
            EXPECT_EQ(got.initial, want.initial);
            EXPECT_EQ(got.final, want.final);
            EXPECT_EQ(got.swapsInserted, want.swapsInserted);
            ASSERT_EQ(got.circuit.size(), want.circuit.size());
            for (size_t i = 0; i < want.circuit.size(); ++i) {
                const Gate &w = want.circuit.gates()[i];
                const Gate &g = got.circuit.gates()[i];
                ASSERT_TRUE(w.kind == g.kind && w.q0 == g.q0 &&
                            w.q1 == g.q1 &&
                            std::bit_cast<uint64_t>(w.angle) ==
                                std::bit_cast<uint64_t>(g.angle))
                    << "gate " << i;
            }
            swaps += want.swapsInserted;
        }
    }
    EXPECT_GT(swaps, 0u);
}

} // namespace
} // namespace hatt
