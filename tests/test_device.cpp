/**
 * @file
 * The device-aware mapping subsystem (src/device/): name resolution
 * through the device registry, the CouplingMap typed-error contract,
 * Bonsai tree growth (every tree edge a coupling edge), the
 * Treespilation candidate tournament, hardware-cost evaluation, and
 * cache-key separation by device through the MapperRegistry store hook.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/optimize.hpp"
#include "circuit/pauli_evolution.hpp"
#include "circuit/schedule.hpp"
#include "common/rng.hpp"
#include "device/bonsai.hpp"
#include "device/cost.hpp"
#include "device/device.hpp"
#include "device/treespilation.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/serialize.hpp"
#include "mapping/mapper.hpp"
#include "mapping/store.hpp"
#include "mapping/verify.hpp"
#include "models/chains.hpp"
#include "route/router.hpp"

namespace hatt {
namespace {

/** A deterministic Hamiltonian every device test shares. */
MajoranaPolynomial
testPoly(uint32_t n)
{
    return randomMajoranaPolynomial(n, 3 * n, 1000 + n);
}

MappingRequest
deviceRequest(const std::string &kind, const MajoranaPolynomial &poly,
              const std::string &device_name)
{
    MappingRequest req;
    req.kind = kind;
    req.poly = &poly;
    if (!device_name.empty())
        req.options["device"] = device_name;
    return req;
}

// ------------------------------------------------------ device registry

TEST(DeviceRegistry, ResolvesBuiltinsCaseInsensitively)
{
    StatusOr<CouplingMap> montreal = device::resolveDevice("Montreal");
    ASSERT_TRUE(montreal.ok()) << montreal.status().message();
    EXPECT_EQ(montreal->numQubits(), 27u);

    StatusOr<std::string> canonical =
        device::canonicalDeviceName("MONTREAL");
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(canonical.value(), "montreal");

    StatusOr<CouplingMap> manhattan = device::resolveDevice("manhattan");
    ASSERT_TRUE(manhattan.ok());
    EXPECT_EQ(manhattan->numQubits(), 65u);
    StatusOr<CouplingMap> sycamore = device::resolveDevice("sycamore");
    ASSERT_TRUE(sycamore.ok());
    EXPECT_EQ(sycamore->numQubits(), 54u);
}

TEST(DeviceRegistry, ResolvesParametricFamilies)
{
    StatusOr<CouplingMap> line = device::resolveDevice("line:8");
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(line->numQubits(), 8u);
    EXPECT_EQ(line->name(), "line:8");

    StatusOr<CouplingMap> grid = device::resolveDevice("grid:3x3");
    ASSERT_TRUE(grid.ok());
    EXPECT_EQ(grid->numQubits(), 9u);
    EXPECT_EQ(grid->name(), "grid:3x3");
    // 3x3 grid: 2 horizontal edges per row * 3 rows + same vertically.
    EXPECT_TRUE(grid->adjacent(0, 1));
    EXPECT_TRUE(grid->adjacent(0, 3));
    EXPECT_FALSE(grid->adjacent(0, 4));
    EXPECT_FALSE(grid->adjacent(2, 3)); // row wrap is not an edge

    StatusOr<CouplingMap> full = device::resolveDevice("all-to-all:5");
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->numQubits(), 5u);
    for (int a = 0; a < 5; ++a)
        for (int b = 0; b < 5; ++b)
            EXPECT_EQ(full->adjacent(a, b), a != b);
}

TEST(DeviceRegistry, RejectsUnknownAndMalformedNames)
{
    // Unknown names list every valid device — the diagnostic hattc
    // surfaces verbatim (exit 64) and hattd returns over the wire.
    for (const char *bad : {"bogus", "line", "ring:5"}) {
        StatusOr<CouplingMap> res = device::resolveDevice(bad);
        ASSERT_FALSE(res.ok()) << bad;
        EXPECT_EQ(res.status().code(), Status::Code::InvalidArgument)
            << bad;
        EXPECT_NE(res.status().message().find("montreal"),
                  std::string::npos)
            << res.status().message();
        EXPECT_NE(res.status().message().find("line:<n>"),
                  std::string::npos)
            << res.status().message();
    }
    // Known families with malformed parameters get a family-specific
    // diagnostic instead of the full listing — still InvalidArgument.
    for (const char *bad :
         {"line:", "line:0", "line:abc", "grid:3", "grid:3x", "grid:0x4",
          "line:9999999999", "all-to-all:-3"}) {
        StatusOr<CouplingMap> res = device::resolveDevice(bad);
        ASSERT_FALSE(res.ok()) << bad;
        EXPECT_EQ(res.status().code(), Status::Code::InvalidArgument)
            << bad;
        EXPECT_NE(res.status().message().find(bad), std::string::npos)
            << res.status().message();
    }
}

TEST(DeviceRegistry, ListsBuiltinsSortedWithEdgeCounts)
{
    const std::vector<device::DeviceInfo> devices =
        device::builtinDevices();
    ASSERT_EQ(devices.size(), 3u);
    EXPECT_EQ(devices[0].name, "manhattan");
    EXPECT_EQ(devices[1].name, "montreal");
    EXPECT_EQ(devices[2].name, "sycamore");
    for (const device::DeviceInfo &d : devices) {
        EXPECT_GT(d.qubits, 0u) << d.name;
        EXPECT_GT(d.edges, 0u) << d.name;
        EXPECT_FALSE(d.family.empty()) << d.name;
    }
    EXPECT_EQ(device::parametricFamilies().size(), 3u);
}

// --------------------------------------------------- coupling map errors

TEST(CouplingMap, DistanceThrowsTypedErrorNamingDeviceWhenDisconnected)
{
    // Two components: {0,1} and {2,3}.
    CouplingMap split(4, {{0, 1}, {2, 3}}, "split-pair");
    EXPECT_FALSE(split.connected());
    try {
        split.distance(0, 2);
        FAIL() << "distance across components must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("split-pair"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(split.nextHop(0, 2), std::invalid_argument);
}

TEST(CouplingMap, DistanceThrowsTypedErrorOnOutOfRangeQubits)
{
    CouplingMap line = CouplingMap::line(4);
    EXPECT_EQ(line.name(), "line:4");
    EXPECT_THROW(line.distance(0, 7), std::invalid_argument);
    EXPECT_THROW(line.distance(-1, 2), std::invalid_argument);
    EXPECT_THROW(line.nextHop(5, 0), std::invalid_argument);
    EXPECT_FALSE(line.adjacent(0, 9)); // bounds-checked, not UB
    EXPECT_EQ(line.distance(0, 3), 3);
}

// ----------------------------------------------------------------- bonsai

TEST(Bonsai, EveryTreeEdgeIsADeviceCouplingEdge)
{
    for (const char *name : {"line:17", "grid:4x5", "montreal"}) {
        CouplingMap dev = device::resolveDevice(name).value();
        for (uint32_t n : {4u, 8u}) {
            SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
            StatusOr<device::BonsaiResult> grown =
                device::growBonsaiTree(n, dev);
            ASSERT_TRUE(grown.ok()) << grown.status().message();
            const TernaryTree &tree = grown->tree;
            const std::vector<int> &l2p = grown->logicalToPhysical;
            ASSERT_EQ(l2p.size(), n);
            EXPECT_TRUE(tree.isCompleteTree());
            // Walk every internal->internal tree edge and require the
            // hosting physical qubits to be coupled on the device.
            const int num_nodes = static_cast<int>(3 * n + 1);
            for (int id = 0; id < num_nodes; ++id) {
                const TreeNode &node = tree.node(id);
                if (node.isLeaf())
                    continue;
                for (int c : node.child) {
                    const TreeNode &child = tree.node(c);
                    if (child.isLeaf())
                        continue;
                    EXPECT_TRUE(dev.adjacent(l2p[node.qubit],
                                             l2p[child.qubit]))
                        << "tree edge q" << node.qubit << " -> q"
                        << child.qubit << " not a coupling edge";
                }
            }
        }
    }
}

TEST(Bonsai, GrowsDeterministicallyFromTheHighestDegreeQubit)
{
    CouplingMap line = CouplingMap::line(8);
    StatusOr<device::BonsaiResult> a = device::growBonsaiTree(8, line);
    StatusOr<device::BonsaiResult> b = device::growBonsaiTree(8, line);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->logicalToPhysical, b->logicalToPhysical);
    // line:8 degrees: ends have 1, interior 2 — the lowest-id interior
    // qubit (1) wins the root tie-break.
    EXPECT_EQ(a->logicalToPhysical[0], 1);
}

TEST(Bonsai, RejectsUndersizedAndDisconnectedDevices)
{
    StatusOr<device::BonsaiResult> small =
        device::growBonsaiTree(8, CouplingMap::line(4));
    ASSERT_FALSE(small.ok());
    EXPECT_EQ(small.status().code(), Status::Code::InvalidArgument);
    EXPECT_NE(small.status().message().find("line:4"), std::string::npos)
        << small.status().message();

    CouplingMap split(8, {{0, 1}, {2, 3}, {4, 5}, {6, 7}}, "islands");
    StatusOr<device::BonsaiResult> disc =
        device::growBonsaiTree(8, split);
    ASSERT_FALSE(disc.ok());
    EXPECT_EQ(disc.status().code(), Status::Code::InvalidArgument);
    EXPECT_NE(disc.status().message().find("islands"), std::string::npos);
}

// ---------------------------------------------- device-aware conformance

TEST(DeviceMapperConformance, ValidAndVacuumPreservingOnEveryTopology)
{
    // The registry conformance bar, extended to the device-aware kinds:
    // anticommutation validity (verifyMapping) and vacuum preservation
    // on a line, a grid and the heavy-hex built-in at n in {4, 8}.
    const MapperRegistry &reg = MapperRegistry::instance();
    for (const char *kind : {"bonsai", "treespilation"}) {
        const Mapper *mapper = reg.find(kind);
        ASSERT_NE(mapper, nullptr) << kind;
        EXPECT_TRUE(mapper->capabilities().deviceAware) << kind;
        for (const char *dev : {"line:17", "grid:3x3", "montreal"}) {
            for (uint32_t n : {4u, 8u}) {
                SCOPED_TRACE(std::string(kind) + " on " + dev +
                             " n=" + std::to_string(n));
                MajoranaPolynomial poly = testPoly(n);
                MappingRequest req = deviceRequest(kind, poly, dev);
                StatusOr<MappingResult> built = reg.build(req);
                ASSERT_TRUE(built.ok()) << built.status().message();

                MappingCheck check =
                    verifyMapperResult(*mapper, req, built.value());
                EXPECT_TRUE(check.valid) << check.reason;
                EXPECT_TRUE(preservesVacuum(built->mapping));
                EXPECT_EQ(built->mapping.numQubits, n);
            }
        }
    }
}

TEST(DeviceMapperConformance, MissingDeviceOptionIsACleanRejection)
{
    MajoranaPolynomial poly = testPoly(4);
    for (const char *kind : {"bonsai", "treespilation"}) {
        MappingRequest req = deviceRequest(kind, poly, "");
        StatusOr<MappingResult> built =
            MapperRegistry::instance().build(req);
        ASSERT_FALSE(built.ok()) << kind;
        EXPECT_EQ(built.status().code(), Status::Code::InvalidArgument);
        EXPECT_NE(built.status().message().find("device"),
                  std::string::npos)
            << built.status().message();
    }
}

// ----------------------------------------------------- cache separation

TEST(DeviceCacheKey, SameProblemDifferentDeviceNeverFalseHits)
{
    // One in-memory store, one problem, two devices: the second build
    // must be a miss (the device is part of the cache identity), and a
    // repeat on either device must hit its own entry.
    TieredMappingStore store;
    MajoranaPolynomial poly = testPoly(8);

    MappingRequest on_line = deviceRequest("bonsai", poly, "line:17");
    MappingRequest on_grid = deviceRequest("bonsai", poly, "grid:3x3");
    const uint64_t hash = io::majoranaContentHash(poly);
    on_line.contentHash = hash;
    on_grid.contentHash = hash;

    StatusOr<MappingResult> first =
        MapperRegistry::instance().build(on_line, &store);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_FALSE(first->metrics.cacheHit);

    StatusOr<MappingResult> other =
        MapperRegistry::instance().build(on_grid, &store);
    ASSERT_TRUE(other.ok()) << other.status().message();
    EXPECT_FALSE(other->metrics.cacheHit)
        << "different device served from the same cache entry";

    StatusOr<MappingResult> again =
        MapperRegistry::instance().build(on_line, &store);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->metrics.cacheHit);
    EXPECT_EQ(again->mapping.majorana.size(),
              first->mapping.majorana.size());

    StatusOr<MappingResult> again_grid =
        MapperRegistry::instance().build(on_grid, &store);
    ASSERT_TRUE(again_grid.ok());
    EXPECT_TRUE(again_grid->metrics.cacheHit);
}

TEST(DeviceCacheKey, DeviceFreeRequestsKeepTheirContentHashKey)
{
    // An empty option bag must key exactly by content hash — the
    // pre-existing pin for every device-independent mapper.
    TieredMappingStore store;
    MajoranaPolynomial poly = testPoly(6);
    MappingRequest req = deviceRequest("jw", poly, "");
    req.contentHash = io::majoranaContentHash(poly);

    StatusOr<MappingResult> first =
        MapperRegistry::instance().build(req, &store);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first->metrics.cacheHit);
    StatusOr<MappingResult> second =
        MapperRegistry::instance().build(req, &store);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->metrics.cacheHit);
}

// ------------------------------------------------------- hardware cost

TEST(HardwareCost, DeterministicExecutableMetrics)
{
    CouplingMap dev = device::resolveDevice("montreal").value();
    MajoranaPolynomial poly = testPoly(8);
    MappingRequest req = deviceRequest("jw", poly, "");
    StatusOr<MappingResult> built = MapperRegistry::instance().build(req);
    ASSERT_TRUE(built.ok());

    StatusOr<device::HardwareCost> a =
        device::evaluateHardwareCost(poly, built->mapping, dev);
    StatusOr<device::HardwareCost> b =
        device::evaluateHardwareCost(poly, built->mapping, dev);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok());
    EXPECT_GT(a->cnots, 0u);
    EXPECT_GT(a->depth, 0u);
    EXPECT_EQ(a->cnots, b->cnots);
    EXPECT_EQ(a->u3, b->u3);
    EXPECT_EQ(a->depth, b->depth);
    EXPECT_EQ(a->swaps, b->swaps);
}

TEST(HardwareCost, GoldenCostsPinned)
{
    // Routed costs recorded before the in-place optimizer and the flat
    // coupling tables; any drift here is a behaviour change in the
    // routed-cost kernel, not a speedup.
    struct Golden
    {
        const char *device;
        const char *kind;
        uint64_t cnots, u3, depth, swaps;
    };
    const Golden golden[] = {
        {"montreal", "jw", 436, 85, 360, 102},
        {"montreal", "bk", 500, 84, 430, 122},
        {"montreal", "hatt", 446, 73, 354, 108},
        {"manhattan", "jw", 397, 85, 353, 89},
        {"manhattan", "bk", 545, 85, 484, 137},
        {"manhattan", "hatt", 518, 73, 425, 132},
        {"line:27", "jw", 490, 85, 375, 120},
        {"line:27", "bk", 521, 84, 426, 129},
        {"line:27", "hatt", 524, 73, 402, 134},
    };
    MajoranaPolynomial poly = testPoly(8);
    for (const Golden &g : golden) {
        SCOPED_TRACE(std::string(g.device) + "/" + g.kind);
        CouplingMap dev = device::resolveDevice(g.device).value();
        MappingRequest req = deviceRequest(g.kind, poly, "");
        StatusOr<MappingResult> built =
            MapperRegistry::instance().build(req);
        ASSERT_TRUE(built.ok()) << built.status().message();
        StatusOr<device::HardwareCost> cost =
            device::evaluateHardwareCost(poly, built->mapping, dev);
        ASSERT_TRUE(cost.ok()) << cost.status().message();
        EXPECT_EQ(cost->cnots, g.cnots);
        EXPECT_EQ(cost->u3, g.u3);
        EXPECT_EQ(cost->depth, g.depth);
        EXPECT_EQ(cost->swaps, g.swaps);
    }
}

TEST(HardwareCost, UndersizedDeviceIsAStatusNotAThrow)
{
    CouplingMap tiny = CouplingMap::line(3);
    MajoranaPolynomial poly = testPoly(8);
    MappingRequest req = deviceRequest("jw", poly, "");
    StatusOr<MappingResult> built = MapperRegistry::instance().build(req);
    ASSERT_TRUE(built.ok());
    StatusOr<device::HardwareCost> cost =
        device::evaluateHardwareCost(poly, built->mapping, tiny);
    ASSERT_FALSE(cost.ok());
    EXPECT_EQ(cost.status().code(), Status::Code::InvalidArgument);
    EXPECT_NE(cost.status().message().find("line:3"), std::string::npos)
        << cost.status().message();
}

/** The materialising routed-cost path the streaming walk replaced:
    route into a circuit, optimize it to its fixpoint, then count it
    and check it against the device. */
device::HardwareCost
referenceHardwareCost(const PauliSum &hq, const CouplingMap &dev)
{
    Circuit c =
        evolutionCircuit(scheduleTerms(hq, ScheduleKind::Lexicographic));
    optimizeCircuit(c);
    RoutedCircuit routed = routeCircuit(c, dev);
    while (optimizeCircuit(routed.circuit) != 0) {
    }
    EXPECT_TRUE(respectsCoupling(routed.circuit, dev));
    const GateCounts counts = routed.circuit.basisCounts();
    return {counts.cnot, counts.u3, counts.depth, routed.swapsInserted};
}

/** A seeded random Pauli sum over @p n qubits, mixing low- and
    high-weight strings so consecutive ladders share prefixes. */
PauliSum
randomPauliSum(uint32_t n, Rng &rng)
{
    PauliSum h(n);
    const int terms = 5 + static_cast<int>(rng.nextInt(60));
    for (int t = 0; t < terms; ++t) {
        PauliString s(n);
        const double density = rng.chance(0.5) ? 0.2 : 0.7;
        for (uint32_t q = 0; q < n; ++q)
            if (rng.chance(density))
                s.setOp(q, static_cast<PauliOp>(1 + rng.nextInt(3)));
        h.add(cplx{rng.nextDouble() - 0.5, 0.0}, s);
    }
    return h;
}

TEST(HardwareCost, StreamingCostMatchesMaterialisingReference)
{
    uint64_t swaps = 0;
    for (const char *name : {"montreal", "manhattan", "line:27", "grid:6x5",
                             "all-to-all:12"}) {
        const CouplingMap dev = device::resolveDevice(name).value();
        const uint32_t max_n = std::min<uint32_t>(dev.numQubits(), 24);
        for (uint64_t seed = 0; seed < 40; ++seed) {
            SCOPED_TRACE(std::string(name) + " seed " +
                         std::to_string(seed));
            Rng rng(5000 + seed);
            const uint32_t n =
                2 + static_cast<uint32_t>(rng.nextInt(max_n - 1));
            const PauliSum hq = randomPauliSum(n, rng);
            const device::HardwareCost want = referenceHardwareCost(hq, dev);
            StatusOr<device::HardwareCost> got =
                device::evaluateHardwareCost(hq, dev);
            ASSERT_TRUE(got.ok()) << got.status().message();
            EXPECT_EQ(got->cnots, want.cnots);
            EXPECT_EQ(got->u3, want.u3);
            EXPECT_EQ(got->depth, want.depth);
            EXPECT_EQ(got->swaps, want.swaps);
            swaps += want.swaps;
        }
    }
    EXPECT_GT(swaps, 0u);
}

TEST(HardwareCost, UncoupledCnotFailsTheCostSink)
{
    const CouplingMap dev = CouplingMap::line(3);
    device::RoutedCostSink coupled(dev);
    coupled(Gate{GateKind::H, 0, -1, 0.0});
    coupled(Gate{GateKind::CNOT, 0, 1, 0.0});
    coupled(Gate{GateKind::CNOT, 2, 1, 0.0});
    StatusOr<device::HardwareCost> ok = coupled.cost(0);
    ASSERT_TRUE(ok.ok()) << ok.status().message();
    EXPECT_EQ(ok->cnots, 2u);
    EXPECT_EQ(ok->u3, 1u);
    EXPECT_EQ(ok->depth, 3u);

    // Even a CNOT that a later one cancels is checked as it arrives.
    device::RoutedCostSink sink(dev);
    sink(Gate{GateKind::CNOT, 0, 1, 0.0});
    sink(Gate{GateKind::CNOT, 0, 2, 0.0});
    sink(Gate{GateKind::CNOT, 0, 2, 0.0});
    StatusOr<device::HardwareCost> bad = sink.cost(0);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), Status::Code::Internal);
    EXPECT_NE(bad.status().message().find("violates the coupling map"),
              std::string::npos)
        << bad.status().message();
}

// --------------------------------------------------------- treespilation

TEST(Treespilation, PicksTheCandidateThatRoutesCheapest)
{
    CouplingMap dev = device::resolveDevice("montreal").value();
    MajoranaPolynomial poly = testPoly(8);
    Deadline deadline;
    StatusOr<MappingResult> res =
        device::buildTreespilationMapping(poly, dev, deadline);
    ASSERT_TRUE(res.ok()) << res.status().message();
    EXPECT_GE(res->metrics.candidates.value_or(0), 2u);
    EXPECT_TRUE(res->tree.has_value());

    StatusOr<device::HardwareCost> winner =
        device::evaluateHardwareCost(poly, res->mapping, dev);
    ASSERT_TRUE(winner.ok());
    EXPECT_EQ(winner->cnots, res->metrics.counters.at("estimated_cost"));

    // No candidate the tournament saw routes cheaper than the winner.
    MappingRequest hatt_req = deviceRequest("hatt", poly, "");
    StatusOr<MappingResult> hatt =
        MapperRegistry::instance().build(hatt_req);
    ASSERT_TRUE(hatt.ok());
    StatusOr<device::HardwareCost> hatt_cost =
        device::evaluateHardwareCost(poly, hatt->mapping, dev);
    ASSERT_TRUE(hatt_cost.ok());
    EXPECT_LE(winner->cnots, hatt_cost->cnots);

    MappingRequest btt_req = deviceRequest("btt", poly, "");
    StatusOr<MappingResult> btt = MapperRegistry::instance().build(btt_req);
    ASSERT_TRUE(btt.ok());
    StatusOr<device::HardwareCost> btt_cost =
        device::evaluateHardwareCost(poly, btt->mapping, dev);
    ASSERT_TRUE(btt_cost.ok());
    EXPECT_LE(winner->cnots, btt_cost->cnots);
}

} // namespace
} // namespace hatt
