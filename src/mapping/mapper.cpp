#include "mapping/mapper.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "device/device_mappers.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/search.hpp"

namespace hatt {

namespace {

std::string
lowered(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

// ------------------------------------------------------ builtin mappers

/** Modes-only closed-form constructions (JW, BK, BTT). */
class FormulaMapper final : public Mapper
{
  public:
    using Builder = FermionQubitMapping (*)(uint32_t);

    FormulaMapper(std::string name, std::string summary, Builder builder)
        : name_(std::move(name)), builder_(builder)
    {
        caps_.needsHamiltonian = false;
        caps_.producesTree = false;
        caps_.vacuumPreserving = true;
        caps_.summary = std::move(summary);
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        MappingResult out;
        out.mapping = builder_(req.poly->numModes());
        return out;
    }

  private:
    std::string name_;
    MapperCapabilities caps_;
    Builder builder_;
};

/** The HATT family: Hamiltonian-adaptive, tree-producing, stats-rich. */
class HattMapper final : public Mapper
{
  public:
    HattMapper(std::string name, std::string summary,
               HattAlgorithm algorithm)
        : name_(std::move(name)), algorithm_(algorithm)
    {
        caps_.needsHamiltonian = true;
        caps_.producesTree = true;
        caps_.vacuumPreserving = algorithm != HattAlgorithm::Unpaired;
        caps_.summary = std::move(summary);
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        HattOptions hopt;
        hopt.algorithm = algorithm_;
        hopt.deadline = req.deadline;
        HattResult res = buildHattMapping(*req.poly, hopt);
        MappingResult out;
        out.mapping = std::move(res.mapping);
        out.tree = std::move(res.tree);
        out.metrics.candidates = res.stats.candidatesEvaluated;
        out.metrics.counters["predicted_weight"] = res.stats.predictedWeight;
        out.metrics.counters["steps"] =
            static_cast<uint64_t>(res.stats.stepWeights.size());
        return out;
    }

  private:
    std::string name_;
    MapperCapabilities caps_;
    HattAlgorithm algorithm_;
};

/**
 * The Fermihedral stand-ins as registry kinds, so searches participate
 * in the compiler/batch/cache paths — and so a deadline can bound their
 * factorial walks. "fh-exact" is the exact minimum over all complete
 * ternary trees x leaf assignments (cost explodes factorially, so more
 * than kFhExactMaxModes modes is rejected up front), "fh-stoch" is the
 * seeded random-restart hill climb.
 */
class SearchMapper final : public Mapper
{
  public:
    using Search = StatusOr<SearchResult> (*)(const MappingRequest &);

    SearchMapper(std::string name, std::string summary, Search search)
        : name_(std::move(name)), search_(search)
    {
        caps_.needsHamiltonian = true;
        caps_.producesTree = false;
        caps_.vacuumPreserving = false;
        caps_.summary = std::move(summary);
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        StatusOr<SearchResult> res = search_(req);
        if (!res.ok())
            return res.status();
        MappingResult out;
        out.mapping = std::move(res->mapping);
        out.metrics.candidates = res->evaluated;
        out.metrics.counters["weight"] = res->weight;
        return out;
    }

  private:
    std::string name_;
    MapperCapabilities caps_;
    Search search_;
};

constexpr uint32_t kFhExactMaxModes = 6;

StatusOr<SearchResult>
fhExactSearch(const MappingRequest &req)
{
    std::optional<SearchResult> res =
        exhaustiveTreeSearch(*req.poly, kFhExactMaxModes, req.deadline);
    if (!res)
        return Status::invalidArgument(
            "mapping 'fh-exact': " + std::to_string(req.poly->numModes()) +
            " modes exceed the exhaustive-search ceiling (" +
            std::to_string(kFhExactMaxModes) + "); use fh-stoch");
    return std::move(*res);
}

StatusOr<SearchResult>
fhStochSearch(const MappingRequest &req)
{
    return stochasticTreeSearch(*req.poly, /*restarts=*/8, /*sweeps=*/30,
                                1234, req.deadline);
}

void
registerBuiltinMappers(MapperRegistry &reg)
{
    // Registration failures here are programming errors (fixed names).
    reg.add(std::make_unique<FormulaMapper>(
        "jw", "Jordan-Wigner, linear-weight Z chains", jordanWignerMapping));
    reg.add(std::make_unique<FormulaMapper>(
        "bk", "Bravyi-Kitaev over the Fenwick tree, O(log N) weight",
        bravyiKitaevMapping));
    reg.add(std::make_unique<FormulaMapper>(
        "btt", "balanced ternary tree, ceil(log3(2N+1)) weight",
        [](uint32_t n) { return balancedTernaryTreeMapping(n); }));
    reg.add(std::make_unique<HattMapper>(
        "hatt",
        "Hamiltonian-adaptive ternary tree (Alg. 2+3), vacuum-preserving",
        HattAlgorithm::Cached));
    reg.add(std::make_unique<HattMapper>(
        "hatt-unopt",
        "Hamiltonian-adaptive ternary tree (Alg. 1), free triples",
        HattAlgorithm::Unpaired));
    reg.add(std::make_unique<SearchMapper>(
        "fh-exact",
        "exhaustive tree search (FH-optimal stand-in), factorial cost",
        fhExactSearch));
    reg.add(std::make_unique<SearchMapper>(
        "fh-stoch",
        "stochastic tree search (FH-approximate stand-in), seeded restarts",
        fhStochSearch));
    device::registerDeviceMappers(reg); // bonsai + treespilation
}

/** splitmix64 finalizer: decorrelates the folded option-bag hash. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over a string (the same idiom io uses for content hashing). */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * The cache key: the canonical content hash, with the device folded in
 * for device-aware kinds so the same Hamiltonian on two devices (bonsai
 * on line:8 vs montreal) never collides in a MappingStore. Every other
 * kind, and a device-aware request without a device, keys by the
 * content hash alone.
 */
uint64_t
effectiveContentHash(const Mapper &mapper, const MappingRequest &req)
{
    uint64_t h = *req.contentHash;
    if (!mapper.capabilities().deviceAware)
        return h;
    if (auto it = req.options.find("device"); it != req.options.end())
        h = mix64(h ^ mix64(fnv1a(it->first)) ^
                  (fnv1a(it->second) * 0x100000001b3ULL));
    return h;
}

} // namespace

// --------------------------------------------------------------- registry

MapperRegistry &
MapperRegistry::instance()
{
    static struct Holder
    {
        MapperRegistry reg;
        Holder() { registerBuiltinMappers(reg); }
    } holder;
    return holder.reg;
}

Status
MapperRegistry::add(std::unique_ptr<Mapper> mapper)
{
    if (!mapper)
        return Status::invalidArgument("cannot register a null mapper");
    const std::string key = lowered(mapper->name());
    if (key.empty())
        return Status::invalidArgument("mapper name must be non-empty");
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = mappers_.emplace(key, std::move(mapper));
    if (!inserted)
        return Status::alreadyExists("mapper '" + key +
                                     "' is already registered");
    return Status();
}

const Mapper *
MapperRegistry::find(const std::string &kind) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mappers_.find(lowered(kind));
    return it == mappers_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
MapperRegistry::kinds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(mappers_.size());
    for (const auto &[key, mapper] : mappers_)
        out.push_back(mapper->name());
    // Map order is already sorted by (lowercased) key.
    return out;
}

Status
MapperRegistry::checkKind(const std::string &kind) const
{
    if (find(kind))
        return Status();
    std::ostringstream ss;
    ss << "unknown mapping '" << kind << "' (known:";
    for (const std::string &k : kinds())
        ss << " " << k;
    ss << ")";
    return Status::notFound(ss.str());
}

std::optional<StoreKey>
MapperRegistry::storeKey(const MappingRequest &req) const
{
    const Mapper *mapper = find(req.kind);
    if (!mapper || !req.contentHash)
        return std::nullopt;
    return StoreKey{effectiveContentHash(*mapper, req), mapper->name()};
}

StatusOr<MappingResult>
MapperRegistry::build(const MappingRequest &req, MappingStore *cache) const
{
    const Mapper *mapper = find(req.kind);
    if (!mapper)
        return checkKind(req.kind);
    for (const auto &[key, value] : req.options)
        if (key != "device")
            return Status::invalidArgument("mapping '" + mapper->name() +
                                           "': unknown option '" + key +
                                           "'");
    if (!req.poly)
        return Status::invalidArgument(
            "mapping '" + mapper->name() +
            "': the request must carry a MajoranaPolynomial");
    if (req.poly->numModes() == 0)
        return Status::invalidArgument("cannot map zero modes");
    // Admission control: reject an already-spent budget before any
    // construction (or cache) work.
    if (req.deadline.expired())
        return Status::deadlineExceeded(
            "mapping '" + mapper->name() +
            "': deadline expired before construction");

    metrics::add("mapping.requests");
    trace::Span span("mapping", "build:" + mapper->name());

    const std::optional<StoreKey> key =
        cache ? storeKey(req) : std::nullopt;
    double cache_seconds = 0.0;
    if (key) {
        Timer lookup_timer;
        std::optional<MappingStore::Entry> hit =
            cache->load(key->contentHash, key->kind);
        cache_seconds = lookup_timer.seconds();
        metrics::observe("mapping.cache_lookup_seconds", cache_seconds);
        if (hit) {
            metrics::add("mapping.cache_hits");
            if (hit->candidates)
                metrics::add("mapping.candidates", *hit->candidates);
            MappingResult out;
            out.mapping = std::move(hit->mapping);
            out.tree = std::move(hit->tree);
            out.metrics.cacheHit = true;
            out.metrics.cacheTier = hit->tier;
            out.metrics.cacheSeconds = cache_seconds;
            out.metrics.candidates = hit->candidates;
            return out;
        }
        metrics::add("mapping.cache_misses");
    }

    Timer timer;
    StatusOr<MappingResult> built = [&]() -> StatusOr<MappingResult> {
        try {
            return mapper->build(req);
        } catch (const DeadlineExceededError &e) {
            return Status::deadlineExceeded("mapping '" + mapper->name() +
                                            "': " + e.what());
        } catch (const std::bad_alloc &) {
            return Status::resourceExhausted("mapping '" + mapper->name() +
                                             "': allocation failed");
        } catch (const std::exception &e) {
            return Status::internal("mapping '" + mapper->name() +
                                    "' failed: " + e.what());
        }
    }();
    if (!built.ok())
        return built;
    built->metrics.seconds = timer.seconds();
    built->metrics.cacheSeconds = cache_seconds;
    metrics::observe("mapping.build_seconds", built->metrics.seconds);
    if (built->metrics.candidates)
        metrics::add("mapping.candidates", *built->metrics.candidates);

    if (key) {
        MappingStore::Entry entry;
        entry.mapping = built->mapping;
        entry.tree = built->tree;
        entry.candidates = built->metrics.candidates;
        try {
            cache->save(key->contentHash, key->kind, entry);
        } catch (const std::exception &) {
            // Persistence is best effort; the build already succeeded.
        }
    }
    return built;
}

} // namespace hatt
