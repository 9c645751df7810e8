#include "mapping/mapper.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
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

/** Resolved mode count of a validated request (poly wins when present). */
uint32_t
requestModes(const MappingRequest &req)
{
    return req.poly ? req.poly->numModes() : req.numModes;
}

/** Reject option-bag keys outside @p allowed (typos must fail loudly). */
Status
checkOptionKeys(const MappingRequest &req,
                std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : req.options) {
        bool known = false;
        for (const char *a : allowed)
            known = known || key == a;
        if (!known)
            return Status::invalidArgument(
                "mapping '" + req.kind + "': unknown option '" + key +
                "'");
    }
    return Status();
}

// ------------------------------------------------------ builtin mappers

/** Modes-only closed-form constructions (JW, BK). */
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
        if (Status s = checkOptionKeys(req, {}); !s.ok())
            return s;
        MappingResult out;
        out.mapping = builder_(requestModes(req));
        return out;
    }

  private:
    std::string name_;
    MapperCapabilities caps_;
    Builder builder_;
};

/** Balanced ternary tree with the leaf-assignment policy as an option. */
class BttMapper final : public Mapper
{
  public:
    BttMapper()
    {
        caps_.needsHamiltonian = false;
        caps_.producesTree = false;
        caps_.vacuumPreserving = true; // the default "paired" policy
        caps_.summary = "balanced ternary tree, ceil(log3(2N+1)) weight "
                        "(options: assignment=paired|natural)";
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        if (Status s = checkOptionKeys(req, {"assignment"}); !s.ok())
            return s;
        BttAssignment policy = BttAssignment::Paired;
        if (auto it = req.options.find("assignment");
            it != req.options.end()) {
            if (it->second == "paired")
                policy = BttAssignment::Paired;
            else if (it->second == "natural")
                policy = BttAssignment::Natural;
            else
                return Status::invalidArgument(
                    "mapping 'btt': assignment must be 'paired' or "
                    "'natural', got '" +
                    it->second + "'");
        }
        MappingResult out;
        out.mapping = balancedTernaryTreeMapping(requestModes(req), policy);
        return out;
    }

  private:
    std::string name_ = "btt";
    MapperCapabilities caps_;
};

/** The HATT family: Hamiltonian-adaptive, tree-producing, stats-rich. */
class HattMapper final : public Mapper
{
  public:
    HattMapper(std::string name, std::string summary, bool vacuum_pairing)
        : name_(std::move(name)), vacuumPairing_(vacuum_pairing)
    {
        caps_.needsHamiltonian = true;
        caps_.producesTree = true;
        caps_.vacuumPreserving = vacuum_pairing;
        caps_.summary = std::move(summary);
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        if (Status s = checkOptionKeys(req, {}); !s.ok())
            return s;
        HattOptions hopt;
        hopt.vacuumPairing = vacuumPairing_;
        hopt.descCache = vacuumPairing_;
        hopt.limits = req.limits;
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
    bool vacuumPairing_;
};

/** Parse a decimal unsigned option value; Status on junk. */
Status
parseUnsignedOption(const MappingRequest &req, const std::string &key,
                    uint64_t min_v, uint64_t max_v, uint64_t &out)
{
    auto it = req.options.find(key);
    if (it == req.options.end())
        return Status();
    const std::string &v = it->second;
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        return Status::invalidArgument("mapping '" + req.kind +
                                       "': option '" + key +
                                       "' must be an unsigned integer, "
                                       "got '" + v + "'");
    const uint64_t parsed = std::strtoull(v.c_str(), nullptr, 10);
    if (parsed < min_v || parsed > max_v)
        return Status::invalidArgument(
            "mapping '" + req.kind + "': option '" + key + "' must be in [" +
            std::to_string(min_v) + ", " + std::to_string(max_v) +
            "], got '" + v + "'");
    out = parsed;
    return Status();
}

/**
 * The Fermihedral stand-ins as registry kinds, so searches participate
 * in the compiler/batch/cache paths — and so a deadline can bound their
 * factorial walks. "fh-exact" is the exact minimum over all complete
 * ternary trees x leaf assignments (cost explodes factorially; a mode
 * ceiling rejects clearly-infeasible requests up front), "fh-stoch" is
 * the seeded random-restart hill climb.
 */
class FhExactMapper final : public Mapper
{
  public:
    FhExactMapper()
    {
        caps_.needsHamiltonian = true;
        caps_.producesTree = false;
        caps_.vacuumPreserving = false;
        caps_.summary = "exhaustive tree search (FH-optimal stand-in), "
                        "factorial cost (options: max_modes<=8)";
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        if (Status s = checkOptionKeys(req, {"max_modes"}); !s.ok())
            return s;
        uint64_t ceiling = 6;
        if (Status s = parseUnsignedOption(req, "max_modes", 1, 8, ceiling);
            !s.ok())
            return s;
        std::optional<SearchResult> res = exhaustiveTreeSearch(
            *req.poly, static_cast<uint32_t>(ceiling), req.limits);
        if (!res)
            return Status::invalidArgument(
                "mapping 'fh-exact': " +
                std::to_string(req.poly->numModes()) +
                " modes exceed the exhaustive-search ceiling (" +
                std::to_string(ceiling) +
                "); raise max_modes or use fh-stoch");
        MappingResult out;
        out.mapping = std::move(res->mapping);
        out.metrics.candidates = res->evaluated;
        out.metrics.counters["weight"] = res->weight;
        return out;
    }

  private:
    std::string name_ = "fh-exact";
    MapperCapabilities caps_;
};

class FhStochMapper final : public Mapper
{
  public:
    FhStochMapper()
    {
        caps_.needsHamiltonian = true;
        caps_.producesTree = false;
        caps_.vacuumPreserving = false;
        caps_.summary = "stochastic tree search (FH-approximate stand-in), "
                        "seeded restarts (options: restarts, sweeps)";
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        if (Status s = checkOptionKeys(req, {"restarts", "sweeps"}); !s.ok())
            return s;
        uint64_t restarts = 8, sweeps = 30;
        if (Status s =
                parseUnsignedOption(req, "restarts", 1, 4096, restarts);
            !s.ok())
            return s;
        if (Status s = parseUnsignedOption(req, "sweeps", 1, 4096, sweeps);
            !s.ok())
            return s;
        SearchResult res = stochasticTreeSearch(
            *req.poly, static_cast<uint32_t>(restarts),
            static_cast<uint32_t>(sweeps), 1234, req.limits);
        MappingResult out;
        out.mapping = std::move(res.mapping);
        out.metrics.candidates = res.evaluated;
        out.metrics.counters["weight"] = res.weight;
        return out;
    }

  private:
    std::string name_ = "fh-stoch";
    MapperCapabilities caps_;
};

void
registerBuiltinMappers(MapperRegistry &reg)
{
    // Registration failures here are programming errors (fixed names).
    reg.add(std::make_unique<FormulaMapper>(
        "jw", "Jordan-Wigner, linear-weight Z chains", jordanWignerMapping));
    reg.add(std::make_unique<FormulaMapper>(
        "bk", "Bravyi-Kitaev over the Fenwick tree, O(log N) weight",
        bravyiKitaevMapping));
    reg.add(std::make_unique<BttMapper>());
    reg.add(std::make_unique<HattMapper>(
        "hatt",
        "Hamiltonian-adaptive ternary tree (Alg. 2+3), vacuum-preserving",
        true));
    reg.add(std::make_unique<HattMapper>(
        "hatt-unopt",
        "Hamiltonian-adaptive ternary tree (Alg. 1), free triples",
        false));
    reg.add(std::make_unique<FhExactMapper>());
    reg.add(std::make_unique<FhStochMapper>());
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
 * The cache key: the canonical content hash with the request's option
 * bag folded in, so two requests for the same Hamiltonian that differ
 * only in options (e.g. bonsai device=line:8 vs device=montreal) never
 * collide in a MappingStore. An empty bag leaves the hash untouched,
 * preserving every pre-option cache entry and pinned hash.
 */
uint64_t
effectiveContentHash(const MappingRequest &req)
{
    uint64_t h = *req.contentHash;
    for (const auto &[key, value] : req.options) // std::map: sorted order
        h = mix64(h ^ mix64(fnv1a(key)) ^ (fnv1a(value) * 0x100000001b3ULL));
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

StatusOr<MappingResult>
MapperRegistry::build(const MappingRequest &req, MappingStore *cache) const
{
    const Mapper *mapper = find(req.kind);
    if (!mapper)
        return checkKind(req.kind);
    const MapperCapabilities &caps = mapper->capabilities();
    if (caps.needsHamiltonian && !req.poly)
        return Status::invalidArgument(
            "mapping '" + mapper->name() +
            "' is Hamiltonian-adaptive: the request must carry a "
            "MajoranaPolynomial");
    if (!req.poly && req.numModes == 0)
        return Status::invalidArgument(
            "request needs numModes or a MajoranaPolynomial");
    if (req.poly && req.numModes != 0 &&
        req.numModes != req.poly->numModes()) {
        std::ostringstream ss;
        ss << "request numModes (" << req.numModes
           << ") disagrees with the Hamiltonian's mode count ("
           << req.poly->numModes() << ")";
        return Status::invalidArgument(ss.str());
    }
    if (requestModes(req) == 0)
        return Status::invalidArgument("cannot map zero modes");
    // Admission control: reject an already-spent budget before any
    // construction (or cache) work.
    if (req.limits.cancel && req.limits.cancel->cancelled())
        return Status::cancelled("mapping '" + mapper->name() +
                                 "': cancelled before construction");
    if (req.limits.deadline.expired())
        return Status::deadlineExceeded(
            "mapping '" + mapper->name() +
            "': deadline expired before construction");

    metrics::add("mapping.requests");
    trace::Span span("mapping", "build:" + mapper->name());

    const bool consult_cache = cache && req.contentHash.has_value();
    const uint64_t cache_key =
        consult_cache ? effectiveContentHash(req) : 0;
    double cache_seconds = 0.0;
    if (consult_cache) {
        Timer lookup_timer;
        std::optional<MappingStore::Entry> hit =
            cache->load(cache_key, mapper->name());
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
        } catch (const CancelledError &e) {
            return Status::cancelled("mapping '" + mapper->name() +
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

    if (consult_cache) {
        MappingStore::Entry entry;
        entry.mapping = built->mapping;
        entry.tree = built->tree;
        entry.candidates = built->metrics.candidates;
        try {
            cache->save(cache_key, mapper->name(), entry);
        } catch (const std::exception &) {
            // Persistence is best effort; the build already succeeded.
        }
    }
    return built;
}

} // namespace hatt
