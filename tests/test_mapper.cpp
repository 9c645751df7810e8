/**
 * @file
 * The unified mapper API (mapping/mapper.*): registry dispatch, request
 * validation through Status/StatusOr, bit-identity with the direct
 * construction functions, the MappingStore cache hook, deadline
 * admission control, extension with custom mappers, and the
 * registry-driven conformance suite — for every
 * registered mapper at n ∈ {2, 4, 8}: algebraic validity
 * (mapping/verify), vacuum preservation exactly when the capabilities
 * promise it, and the canonical anticommutation relations of the
 * annihilationOperator / creationOperator pairs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/mapper.hpp"
#include "mapping/verify.hpp"
#include "models/chains.hpp"
#include "pauli/pauli_sum.hpp"

namespace hatt {
namespace {

/** FNV-1a over the mapping's term strings (as in test_perf_parity). */
uint64_t
stringsHash(const FermionQubitMapping &map)
{
    uint64_t h = 1469598103934665603ull;
    for (const PauliTerm &t : map.majorana) {
        std::string s = t.string.toString();
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** A deterministic Hamiltonian every mapper kind can consume. */
MajoranaPolynomial
testPoly(uint32_t n)
{
    return randomMajoranaPolynomial(n, 3 * n, 1000 + n);
}

MappingRequest
requestFor(const std::string &kind, const MajoranaPolynomial &poly)
{
    MappingRequest req;
    req.kind = kind;
    req.poly = &poly;
    return req;
}

/** {A, B} as a compressed PauliSum over @p num_qubits qubits. */
PauliSum
anticommutator(const std::vector<PauliTerm> &a,
               const std::vector<PauliTerm> &b, uint32_t num_qubits)
{
    PauliSum sum(num_qubits);
    for (const PauliTerm &x : a) {
        for (const PauliTerm &y : b) {
            sum.add(PauliTerm::multiply(x, y));
            sum.add(PauliTerm::multiply(y, x));
        }
    }
    sum.compress();
    return sum;
}

TEST(MapperRegistry, ListsTheBuiltinsSorted)
{
    const std::vector<std::string> kinds =
        MapperRegistry::instance().kinds();
    const std::vector<std::string> expected = {
        "bk",   "bonsai",     "btt", "fh-exact", "fh-stoch",
        "hatt", "hatt-unopt", "jw",  "treespilation"};
    EXPECT_EQ(kinds, expected);
    for (const std::string &k : kinds) {
        const Mapper *m = MapperRegistry::instance().find(k);
        ASSERT_NE(m, nullptr) << k;
        EXPECT_EQ(m->name(), k);
        EXPECT_FALSE(m->capabilities().summary.empty()) << k;
    }
}

TEST(MapperRegistry, LookupIsCaseInsensitive)
{
    // The benchmark tables address mappers by display label ("JW",
    // "HATT-unopt"); both must resolve to the canonical mapper.
    const MapperRegistry &reg = MapperRegistry::instance();
    EXPECT_EQ(reg.find("JW"), reg.find("jw"));
    EXPECT_EQ(reg.find("HATT-unopt"), reg.find("hatt-unopt"));
    EXPECT_EQ(reg.find("Btt"), reg.find("btt"));
    EXPECT_EQ(reg.find("fermihedral"), nullptr);
}

TEST(MapperRegistry, BuildsBitIdenticalToDirectConstruction)
{
    MajoranaPolynomial poly = testPoly(5);
    const uint32_t n = poly.numModes();

    auto via_registry = [&](const std::string &kind) {
        StatusOr<MappingResult> built =
            MapperRegistry::instance().build(requestFor(kind, poly));
        EXPECT_TRUE(built.ok()) << built.status().message();
        return std::move(built).value();
    };

    EXPECT_EQ(stringsHash(via_registry("jw").mapping),
              stringsHash(jordanWignerMapping(n)));
    EXPECT_EQ(stringsHash(via_registry("bk").mapping),
              stringsHash(bravyiKitaevMapping(n)));
    EXPECT_EQ(stringsHash(via_registry("btt").mapping),
              stringsHash(balancedTernaryTreeMapping(n)));

    HattResult direct = buildHattMapping(poly);
    MappingResult hatt = via_registry("hatt");
    EXPECT_EQ(stringsHash(hatt.mapping), stringsHash(direct.mapping));
    ASSERT_TRUE(hatt.metrics.candidates.has_value());
    EXPECT_EQ(*hatt.metrics.candidates, direct.stats.candidatesEvaluated);
    EXPECT_EQ(hatt.metrics.counters.at("predicted_weight"),
              direct.stats.predictedWeight);
    ASSERT_TRUE(hatt.tree.has_value());
    ASSERT_EQ(hatt.tree->numNodes(), direct.tree.numNodes());
    for (size_t id = 0; id < direct.tree.numNodes(); ++id)
        EXPECT_EQ(hatt.tree->node(static_cast<int>(id)).child,
                  direct.tree.node(static_cast<int>(id)).child);

    EXPECT_EQ(stringsHash(via_registry("hatt-unopt").mapping),
              stringsHash(
                  buildHattMapping(poly, {HattAlgorithm::Unpaired}).mapping));
}

TEST(MapperRegistry, ModesOnlyMappersReadOnlyTheModeCount)
{
    const MajoranaPolynomial no_terms(6);
    StatusOr<MappingResult> built =
        MapperRegistry::instance().build(requestFor("jw", no_terms));
    ASSERT_TRUE(built.ok()) << built.status().message();
    EXPECT_EQ(built->mapping.numModes, 6u);
    EXPECT_EQ(stringsHash(built->mapping),
              stringsHash(jordanWignerMapping(6)));
    EXPECT_FALSE(built->metrics.cacheHit);
    EXPECT_FALSE(built->tree.has_value());
}

TEST(MapperRegistry, RejectsMalformedRequestsWithStatuses)
{
    const MapperRegistry &reg = MapperRegistry::instance();
    MajoranaPolynomial poly = testPoly(3);

    MappingRequest unknown = requestFor("fermihedral", poly);
    StatusOr<MappingResult> r1 = reg.build(unknown);
    ASSERT_FALSE(r1.ok());
    EXPECT_EQ(r1.status().code(), Status::Code::NotFound);
    // The diagnostic names every registered kind (the CLI prints it).
    for (const std::string &k : reg.kinds())
        EXPECT_NE(r1.status().message().find(k), std::string::npos);

    // Every kind needs the Hamiltonian, if only for its mode count.
    for (const std::string &kind : reg.kinds()) {
        MappingRequest no_poly;
        no_poly.kind = kind;
        StatusOr<MappingResult> r2 = reg.build(no_poly);
        ASSERT_FALSE(r2.ok()) << kind;
        EXPECT_EQ(r2.status().code(), Status::Code::InvalidArgument);
    }

    const MajoranaPolynomial no_modes;
    StatusOr<MappingResult> r3 = reg.build(requestFor("jw", no_modes));
    ASSERT_FALSE(r3.ok());
    EXPECT_EQ(r3.status().code(), Status::Code::InvalidArgument);
}

TEST(MapperRegistry, DeviceIsTheOnlyOptionKey)
{
    // The option keys the mappers once read, and a typo: every one is
    // an InvalidArgument naming the key, for every kind (device-aware
    // kinds included, even when the device itself is valid).
    const MapperRegistry &reg = MapperRegistry::instance();
    MajoranaPolynomial poly = testPoly(3);
    for (const std::string &kind : reg.kinds()) {
        for (const char *key :
             {"assignment", "max_modes", "restarts", "sweeps", "vaccum"}) {
            SCOPED_TRACE(kind + " " + key);
            MappingRequest req = requestFor(kind, poly);
            req.options["device"] = "line:8";
            req.options[key] = "1";
            StatusOr<MappingResult> built = reg.build(req);
            ASSERT_FALSE(built.ok());
            EXPECT_EQ(built.status().code(), Status::Code::InvalidArgument);
            EXPECT_NE(built.status().message().find(std::string("'") +
                                                    key + "'"),
                      std::string::npos)
                << built.status().message();
        }
    }
}

TEST(MapperRegistry, DeviceOnADeviceIndependentKindIsIgnored)
{
    // The registry, not each caller, decides who sees the device: jw on
    // montreal is jw, with jw's store key.
    const MapperRegistry &reg = MapperRegistry::instance();
    MajoranaPolynomial poly = testPoly(5);
    MappingRequest plain = requestFor("jw", poly);
    plain.contentHash = 42;
    MappingRequest on_device = plain;
    on_device.options["device"] = "montreal";

    StatusOr<MappingResult> a = reg.build(plain);
    StatusOr<MappingResult> b = reg.build(on_device);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    EXPECT_EQ(stringsHash(a->mapping), stringsHash(b->mapping));

    const std::optional<StoreKey> ka = reg.storeKey(plain);
    const std::optional<StoreKey> kb = reg.storeKey(on_device);
    ASSERT_TRUE(ka && kb);
    EXPECT_EQ(ka->contentHash, 42u);
    EXPECT_EQ(kb->contentHash, ka->contentHash);
    EXPECT_EQ(kb->kind, ka->kind);

    // A device-aware kind folds it in.
    MappingRequest bonsai = on_device;
    bonsai.kind = "bonsai";
    ASSERT_TRUE(reg.storeKey(bonsai));
    EXPECT_NE(reg.storeKey(bonsai)->contentHash, 42u);
}

// ------------------------------------------------------------- the store

/** In-memory MappingStore counting loads/saves. */
struct MemoryStore final : MappingStore
{
    std::map<std::pair<uint64_t, std::string>, Entry> entries;
    int loads = 0;
    int saves = 0;

    std::optional<Entry>
    load(uint64_t hash, const std::string &kind) override
    {
        ++loads;
        auto it = entries.find({hash, kind});
        if (it == entries.end())
            return std::nullopt;
        return it->second;
    }

    void
    save(uint64_t hash, const std::string &kind,
         const Entry &entry) override
    {
        ++saves;
        entries[{hash, kind}] = entry;
    }
};

TEST(MapperRegistry, CacheableMappersGetStoreCachingForFree)
{
    MajoranaPolynomial poly = testPoly(4);
    MemoryStore store;
    MappingRequest req = requestFor("hatt", poly);
    req.contentHash = 42;

    StatusOr<MappingResult> cold =
        MapperRegistry::instance().build(req, &store);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold->metrics.cacheHit);
    EXPECT_EQ(store.saves, 1);

    StatusOr<MappingResult> warm =
        MapperRegistry::instance().build(req, &store);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->metrics.cacheHit);
    // A hit skips construction (seconds stays 0) but must still report
    // what the lookup itself cost — the cacheSeconds split exists so a
    // hit cannot claim the mapping was free.
    EXPECT_EQ(warm->metrics.seconds, 0.0);
    EXPECT_GT(warm->metrics.cacheSeconds, 0.0);
    EXPECT_GT(cold->metrics.seconds, 0.0);
    EXPECT_GE(cold->metrics.cacheSeconds, 0.0);
    EXPECT_EQ(store.saves, 1);
    EXPECT_EQ(stringsHash(warm->mapping), stringsHash(cold->mapping));
    // The determinism witness survives the round trip.
    EXPECT_EQ(warm->metrics.candidates, cold->metrics.candidates);
    ASSERT_TRUE(warm->tree.has_value());

    // Without a content hash the store is never consulted.
    MappingRequest unhashed = requestFor("hatt", poly);
    StatusOr<MappingResult> direct =
        MapperRegistry::instance().build(unhashed, &store);
    ASSERT_TRUE(direct.ok());
    EXPECT_FALSE(direct->metrics.cacheHit);
    EXPECT_EQ(store.saves, 1);
}

TEST(MapperRegistry, ExpiredDeadlineIsRejectedBeforeTheStore)
{
    MajoranaPolynomial poly = testPoly(4);
    MemoryStore store;
    MappingRequest req = requestFor("hatt", poly);
    req.contentHash = 42;
    req.deadline = Deadline::after(0.0);

    metrics::reset();
    StatusOr<MappingResult> res =
        MapperRegistry::instance().build(req, &store);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), Status::Code::DeadlineExceeded);
    EXPECT_NE(res.status().message().find("hatt"), std::string::npos);
    // Admission control: no store lookup, and not counted as a request.
    EXPECT_EQ(store.loads, 0);
    EXPECT_EQ(store.saves, 0);
    EXPECT_EQ(metrics::snapshot().counters.count("mapping.requests"), 0u);
}

// --------------------------------------------------------------- custom

/** A deliberately misdeclaring mapper for negative conformance tests. */
class LyingMapper final : public Mapper
{
  public:
    LyingMapper()
    {
        caps_.needsHamiltonian = false;
        caps_.producesTree = true;     // lie: build() returns no tree
        caps_.vacuumPreserving = true; // lie: natural BTT breaks vacuum
        caps_.summary = "misdeclares its capabilities (test only)";
    }
    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }
    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        MappingResult out;
        out.mapping = balancedTernaryTreeMapping(req.poly->numModes(),
                                                 BttAssignment::Natural);
        return out;
    }

  private:
    std::string name_ = "liar";
    MapperCapabilities caps_;
};

TEST(MapperRegistry, CustomMappersRegisterAndCollide)
{
    MapperRegistry reg; // private registry: no builtins, no global state
    EXPECT_TRUE(reg.kinds().empty());
    ASSERT_TRUE(reg.add(std::make_unique<LyingMapper>()).ok());
    EXPECT_NE(reg.find("liar"), nullptr);
    EXPECT_NE(reg.find("LIAR"), nullptr);

    Status dup = reg.add(std::make_unique<LyingMapper>());
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.code(), Status::Code::AlreadyExists);
    EXPECT_EQ(reg.kinds(), std::vector<std::string>{"liar"});

    const MajoranaPolynomial poly(3);
    MappingRequest req = requestFor("liar", poly);
    StatusOr<MappingResult> built = reg.build(req);
    ASSERT_TRUE(built.ok());

    // The conformance checker catches both misdeclarations.
    MappingCheck check =
        verifyMapperResult(*reg.find("liar"), req, built.value());
    EXPECT_FALSE(check.valid);
    EXPECT_NE(check.reason.find("liar"), std::string::npos);
}

TEST(MapperRegistry, ThrowingMapperSurfacesAsInternalStatus)
{
    struct ThrowingMapper final : Mapper
    {
        std::string name_ = "boom";
        MapperCapabilities caps_;
        const std::string &name() const override { return name_; }
        const MapperCapabilities &capabilities() const override
        {
            return caps_;
        }
        StatusOr<MappingResult>
        build(const MappingRequest &) const override
        {
            throw std::runtime_error("exploded mid-construction");
        }
    };
    MapperRegistry reg;
    ASSERT_TRUE(reg.add(std::make_unique<ThrowingMapper>()).ok());
    const MajoranaPolynomial poly(2);
    StatusOr<MappingResult> built = reg.build(requestFor("boom", poly));
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), Status::Code::Internal);
    EXPECT_NE(built.status().message().find("exploded"),
              std::string::npos);
}

// ---------------------------------------------------------- conformance

TEST(MapperConformance, EveryRegisteredMapperHonorsItsContract)
{
    // The registry-driven suite: every mapper at n ∈ {2, 4, 8} builds a
    // result that (a) passes verifyMapperResult — algebraic validity,
    // vacuum preservation iff declared, tree consistency iff declared —
    // and (b) satisfies the canonical anticommutation relations through
    // the annihilationOperator / creationOperator surface:
    //   {a_i, a_j} = 0,  {a_i†, a_j†} = 0,  {a_i, a_j†} = δ_ij I.
    const MapperRegistry &reg = MapperRegistry::instance();
    for (const std::string &kind : reg.kinds()) {
        const Mapper *mapper = reg.find(kind);
        ASSERT_NE(mapper, nullptr) << kind;
        for (uint32_t n : {2u, 4u, 8u}) {
            SCOPED_TRACE(kind + " n=" + std::to_string(n));
            MajoranaPolynomial poly = testPoly(n);
            MappingRequest req = requestFor(kind, poly);
            StatusOr<MappingResult> built = reg.build(req);
            if (!built.ok()) {
                // A mapper may reject sizes beyond its declared ceiling
                // (fh-exact caps exhaustive search at 6 modes) — but the
                // rejection must be a clean InvalidArgument, never a
                // crash or an Internal status.
                EXPECT_EQ(built.status().code(),
                          Status::Code::InvalidArgument)
                    << built.status().message();
                continue;
            }
            const FermionQubitMapping &map = built->mapping;

            MappingCheck check =
                verifyMapperResult(*mapper, req, built.value());
            EXPECT_TRUE(check.valid) << check.reason;

            const uint32_t nq = map.numQubits;
            for (uint32_t i = 0; i < n; ++i) {
                for (uint32_t j = i; j < n; ++j) {
                    PauliSum aa =
                        anticommutator(map.annihilationOperator(i),
                                       map.annihilationOperator(j), nq);
                    EXPECT_EQ(aa.size(), 0u) << "{a_" << i << ", a_" << j
                                             << "} != 0";
                    PauliSum cc =
                        anticommutator(map.creationOperator(i),
                                       map.creationOperator(j), nq);
                    EXPECT_EQ(cc.size(), 0u)
                        << "{a†_" << i << ", a†_" << j << "} != 0";
                    PauliSum ac =
                        anticommutator(map.annihilationOperator(i),
                                       map.creationOperator(j), nq);
                    if (i == j) {
                        ASSERT_EQ(ac.size(), 1u)
                            << "{a_" << i << ", a†_" << i << "} != I";
                        EXPECT_TRUE(ac.terms()[0].string.isIdentity());
                        EXPECT_NEAR(ac.terms()[0].coeff.real(), 1.0,
                                    1e-12);
                        EXPECT_NEAR(ac.terms()[0].coeff.imag(), 0.0,
                                    1e-12);
                    } else {
                        EXPECT_EQ(ac.size(), 0u)
                            << "{a_" << i << ", a†_" << j << "} != 0";
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace hatt
