#include "mapping/mapper.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "device/bonsai.hpp"
#include "device/device.hpp"
#include "device/treespilation.hpp"
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

// --------------------------------------------------------- builtin kinds

/** A closed form over the mode count: the mapping alone. */
StatusOr<MappingResult>
modesOnly(FermionQubitMapping mapping)
{
    MappingResult out;
    out.mapping = std::move(mapping);
    return out;
}

/** The HATT family: Hamiltonian-adaptive, tree-producing. */
StatusOr<MappingResult>
buildHatt(const MappingRequest &req, HattAlgorithm algorithm)
{
    HattResult res = buildHattMapping(*req.poly, {algorithm, req.deadline});
    MappingResult out;
    out.mapping = std::move(res.mapping);
    out.tree = std::move(res.tree);
    out.metrics.candidates = res.stats.candidatesEvaluated;
    out.metrics.counters["predicted_weight"] = res.stats.predictedWeight;
    return out;
}

/**
 * The Fermihedral stand-ins are registry kinds, so searches take part
 * in the compiler/batch/cache paths — and so a deadline can bound their
 * factorial walks. "fh-exact" is the exact minimum over all complete
 * ternary trees x leaf assignments (cost explodes factorially, so more
 * than kFhExactMaxModes modes is rejected up front), "fh-stoch" is the
 * seeded random-restart hill climb.
 */
StatusOr<MappingResult>
searched(SearchResult res)
{
    MappingResult out;
    out.mapping = std::move(res.mapping);
    out.metrics.candidates = res.evaluated;
    return out;
}

constexpr uint32_t kFhExactMaxModes = 6;

StatusOr<MappingResult>
buildFhExact(const MappingRequest &req)
{
    std::optional<SearchResult> res =
        exhaustiveTreeSearch(*req.poly, kFhExactMaxModes, req.deadline);
    if (!res)
        return Status::invalidArgument(
            "mapping 'fh-exact': " + std::to_string(req.poly->numModes()) +
            " modes exceed the exhaustive-search ceiling (" +
            std::to_string(kFhExactMaxModes) + "); use fh-stoch");
    return searched(std::move(*res));
}

/** Resolve the required "device" option of a device-aware request. */
StatusOr<CouplingMap>
requestDevice(const MappingRequest &req)
{
    auto it = req.options.find("device");
    if (it == req.options.end())
        return Status::invalidArgument(
            "mapping '" + req.kind +
            "' is device-aware: the request must carry a device option "
            "(e.g. device=montreal, device=line:8)");
    return device::resolveDevice(it->second);
}

StatusOr<MappingResult>
buildBonsai(const MappingRequest &req)
{
    StatusOr<CouplingMap> dev = requestDevice(req);
    if (!dev.ok())
        return dev.status();
    StatusOr<device::BonsaiResult> grown =
        device::growBonsaiTree(req.poly->numModes(), dev.value());
    if (!grown.ok())
        return grown.status();
    MappingResult out;
    out.mapping = mappingFromTree(grown->tree, "Bonsai",
                                  vacuumPairingAssignment(grown->tree));
    out.tree = std::move(grown->tree);
    return out;
}

StatusOr<MappingResult>
buildTreespilation(const MappingRequest &req)
{
    StatusOr<CouplingMap> dev = requestDevice(req);
    if (!dev.ok())
        return dev.status();
    return device::buildTreespilationMapping(*req.poly, dev.value(),
                                             req.deadline);
}

/** Every built-in kind, one row each: name, capabilities, build. */
void
registerBuiltinMappers(MapperRegistry &reg)
{
    Mapper rows[] = {
        {"jw",
         {.summary = "Jordan-Wigner, linear-weight Z chains"},
         [](const MappingRequest &req) {
             return modesOnly(jordanWignerMapping(req.poly->numModes()));
         }},
        {"bk",
         {.summary = "Bravyi-Kitaev over the Fenwick tree, O(log N) weight"},
         [](const MappingRequest &req) {
             return modesOnly(bravyiKitaevMapping(req.poly->numModes()));
         }},
        {"btt",
         {.summary = "balanced ternary tree, ceil(log3(2N+1)) weight"},
         [](const MappingRequest &req) {
             return modesOnly(
                 balancedTernaryTreeMapping(req.poly->numModes()));
         }},
        {"hatt",
         {.needsHamiltonian = true,
          .producesTree = true,
          .summary = "Hamiltonian-adaptive ternary tree (Alg. 2+3), "
                     "vacuum-preserving"},
         [](const MappingRequest &req) {
             return buildHatt(req, HattAlgorithm::Cached);
         }},
        {"hatt-unopt",
         {.needsHamiltonian = true,
          .producesTree = true,
          .vacuumPreserving = false,
          .summary = "Hamiltonian-adaptive ternary tree (Alg. 1), free "
                     "triples"},
         [](const MappingRequest &req) {
             return buildHatt(req, HattAlgorithm::Unpaired);
         }},
        {"fh-exact",
         {.needsHamiltonian = true,
          .vacuumPreserving = false,
          .summary = "exhaustive tree search (FH-optimal stand-in), "
                     "factorial cost"},
         buildFhExact},
        {"fh-stoch",
         {.needsHamiltonian = true,
          .vacuumPreserving = false,
          .summary = "stochastic tree search (FH-approximate stand-in), "
                     "seeded restarts"},
         [](const MappingRequest &req) {
             return searched(stochasticTreeSearch(
                 *req.poly, /*restarts=*/8, /*sweeps=*/30, 1234,
                 req.deadline));
         }},
        {"bonsai",
         {.producesTree = true,
          .deviceAware = true,
          .summary = "device-grown ternary tree (Bonsai), every tree edge "
                     "a coupling edge (options: device=<name>)"},
         buildBonsai},
        {"treespilation",
         {.needsHamiltonian = true,
          .producesTree = true,
          .deviceAware = true,
          .summary = "architecture-optimised tree selection "
                     "(Treespilation) over HATT/Bonsai/BTT candidates "
                     "(options: device=<name>)"},
         buildTreespilation},
    };
    // Registration failures here are programming errors (fixed names).
    for (Mapper &row : rows)
        reg.add(std::move(row));
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
MapperRegistry::add(Mapper mapper)
{
    const std::string key = lowered(mapper.name());
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
    return it == mappers_.end() ? nullptr : &it->second;
}

std::vector<std::string>
MapperRegistry::kinds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(mappers_.size());
    for (const auto &[key, mapper] : mappers_)
        out.push_back(mapper.name());
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
