/**
 * @file
 * e2e_probe — the benchmark's helper linked against the hatt library.
 *
 *   e2e_probe corpus DIR SEED SPEC...
 *       Write one seeded input per SPEC into DIR and print its path:
 *         hubbard:RxC    Fermi-Hubbard lattice via streamHubbardTerms +
 *                        writeFermionText; t and U are drawn from the seed
 *         dense:M:T      T random 2-body terms (conjugate pairs) plus every
 *                        number operator on M modes, as .ops
 *         molecule:NAME  STO-3G molecule through the chem pipeline
 *                        (AO integrals -> RHF -> MO), written by
 *                        writeFcidump
 *
 *   e2e_probe replay MANIFEST STORE SECONDS WORKDIR SPANS_OUT
 *       Replay every request of MANIFEST (lines "input<TAB>kind<TAB>
 *       device", device "-" for none) through the library's public layer
 *       calls, timing each layer with a span recorded here, never inside
 *       the library. Before each traced replay the same request runs
 *       untraced through CompilationService::compile, which is the
 *       reference for service.s and the tracing overhead. STORE is the
 *       request path's mapping store:
 *         none   no store (hattc without --cache)
 *         fresh  a new disk cache + memory tier per request (hattc
 *                --cache on a fresh directory)
 *         warm   one long-lived disk + memory tier warmed before timing
 *                (hattd --cache after its first pass)
 *       Passes over the manifest repeat until SECONDS have elapsed (at
 *       least two passes). Spans are kept in memory and written to
 *       SPANS_OUT as JSON at exit.
 */

#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/basis.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"
#include "chem/scf.hpp"
#include "device/cost.hpp"
#include "device/device.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/cache.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/serialize.hpp"
#include "io/service.hpp"
#include "io/stream.hpp"
#include "mapping/mapper.hpp"
#include "mapping/store.hpp"
#include "models/hubbard.hpp"

namespace fs = std::filesystem;
using namespace hatt;

namespace {

// ------------------------------------------------------------- corpus

/** splitmix64: the benchmark's own generator, so inputs do not move
    when the library's RNG changes. */
struct SplitMix
{
    uint64_t state;

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1p-53;
    }

    uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }
};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string part;
    while (std::getline(ss, part, sep))
        out.push_back(part);
    return out;
}

fs::path
writeOps(const fs::path &path, const FermionHamiltonian &hf,
         const std::string &comment)
{
    std::ofstream out(path);
    io::writeFermionText(out, hf, comment);
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
    return path;
}

fs::path
writeHubbard(const fs::path &dir, const std::string &dims, SplitMix &rng)
{
    const std::vector<std::string> rc = split(dims, 'x');
    if (rc.size() != 2)
        throw std::runtime_error("hubbard spec needs RxC: " + dims);
    HubbardParams p;
    p.rows = static_cast<uint32_t>(std::stoul(rc[0]));
    p.cols = static_cast<uint32_t>(std::stoul(rc[1]));
    p.t = rng.uniform(0.5, 1.5);
    p.u = rng.uniform(2.0, 8.0);
    FermionHamiltonian hf(hubbardNumModes(p));
    streamHubbardTerms(p, [&](FermionTerm &&term) { hf.add(term); });
    return writeOps(dir / ("hub" + dims + ".ops"), hf,
                    "Fermi-Hubbard " + dims);
}

fs::path
writeDense(const fs::path &dir, uint32_t modes, uint32_t terms,
           SplitMix &rng, const std::string &name)
{
    if (modes < 2)
        throw std::runtime_error("dense spec needs at least 2 modes");
    FermionHamiltonian hf(modes);
    for (uint32_t p = 0; p < modes; ++p)
        hf.add(rng.uniform(-1.0, 1.0), {create(p), annihilate(p)});
    while (hf.size() < size_t{terms} + modes) {
        uint32_t p = rng.below(modes), q = rng.below(modes - 1);
        uint32_t r = rng.below(modes), s = rng.below(modes - 1);
        q += q >= p;
        s += s >= r;
        hf.addWithConjugate(rng.uniform(-1.0, 1.0),
                            {create(p), create(q), annihilate(r),
                             annihilate(s)});
    }
    return writeOps(dir / (name + ".ops"), hf, "dense random 2-body");
}

fs::path
writeMolecule(const fs::path &dir, const std::string &name)
{
    std::vector<Atom> atoms = moleculeGeometry(name);
    std::vector<BasisFunction> funcs;
    for (const Atom &a : atoms) {
        std::vector<BasisFunction> fs = basisForAtom(a, BasisSet::Sto3g);
        funcs.insert(funcs.end(), fs.begin(), fs.end());
    }
    AoIntegrals ints = computeAoIntegrals(atoms, funcs);
    const uint32_t electrons = moleculeElectronCount(name);
    MoIntegrals mo = transformToMo(ints, runRhf(ints, electrons), electrons);
    const fs::path path = dir / (name + ".fcidump");
    std::ofstream out(path);
    io::writeFcidump(out, mo);
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
    return path;
}

int
cmdCorpus(int argc, char **argv)
{
    if (argc < 5)
        throw std::runtime_error("usage: corpus DIR SEED SPEC...");
    const fs::path dir = argv[2];
    fs::create_directories(dir);
    const uint64_t seed = std::stoull(argv[3]);
    for (int i = 4; i < argc; ++i) {
        const std::vector<std::string> f = split(argv[i], ':');
        // One stream per spec position: adding a spec leaves the others'
        // inputs unchanged.
        SplitMix rng{seed * 0x100000001b3ULL + static_cast<uint64_t>(i)};
        fs::path path;
        if (f.size() == 2 && f[0] == "hubbard")
            path = writeHubbard(dir, f[1], rng);
        else if (f.size() == 3 && f[0] == "dense")
            path = writeDense(dir, static_cast<uint32_t>(std::stoul(f[1])),
                              static_cast<uint32_t>(std::stoul(f[2])), rng,
                              "dense" + f[1] + "_" + std::to_string(i - 3));
        else if (f.size() == 2 && f[0] == "molecule")
            path = writeMolecule(dir, f[1]);
        else
            throw std::runtime_error(std::string("bad spec: ") + argv[i]);
        std::cout << path.string() << "\n";
    }
    return 0;
}

// ------------------------------------------------------------- replay

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = root
    uint64_t request = 0;
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    std::vector<std::pair<std::string, double>> counts;
};

/** In-memory span log; written once at exit. */
class SpanLog
{
  public:
    uint64_t
    open(const std::string &name, uint64_t parent, uint64_t request)
    {
        SpanRecord s;
        s.id = spans_.size() + 1;
        s.parent = parent;
        s.request = request;
        s.name = name;
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void close(uint64_t id) { spans_[id - 1].endNs = nowNs(); }

    void
    count(uint64_t id, const std::string &key, double value)
    {
        spans_[id - 1].counts.emplace_back(key, value);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out.precision(17); // counts keep every digit
        out << "{\"format\": \"e2ebench-spans\", \"version\": 1, "
               "\"spans\": [\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord &s = spans_[i];
            out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
                << ", \"request\": " << s.request << ", \"name\": \""
                << s.name << "\", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << ", \"counts\": {";
            for (size_t k = 0; k < s.counts.size(); ++k)
                out << (k ? ", " : "") << "\"" << s.counts[k].first
                    << "\": " << s.counts[k].second;
            out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        if (!out)
            throw std::runtime_error("cannot write spans to " + path);
    }

  private:
    std::vector<SpanRecord> spans_;
};

/** RAII span: opened on construction, closed on destruction. */
class Span
{
  public:
    Span(SpanLog &log, const std::string &name, uint64_t parent,
         uint64_t request)
        : log_(log), id_(log.open(name, parent, request))
    {
    }
    ~Span() { log_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }
    void count(const std::string &k, double v) { log_.count(id_, k, v); }

  private:
    SpanLog &log_;
    uint64_t id_;
};

struct Request
{
    std::string input;
    std::string kind;
    std::string device; //!< empty = architecture-agnostic
};

std::vector<Request>
readManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open manifest " + path);
    std::vector<Request> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> f = split(line, '\t');
        if (f.size() != 3)
            throw std::runtime_error("bad manifest line: " + line);
        out.push_back({f[0], f[1], f[2] == "-" ? "" : f[2]});
    }
    if (out.empty())
        throw std::runtime_error("empty manifest " + path);
    return out;
}

class Replayer
{
  public:
    Replayer(std::string store_mode, fs::path work)
        : mode_(std::move(store_mode)), work_(std::move(work))
    {
        if (mode_ != "none" && mode_ != "fresh" && mode_ != "warm")
            throw std::runtime_error("STORE must be none|fresh|warm");
        fs::create_directories(work_);
        if (mode_ == "warm") {
            warmDisk_ = std::make_unique<io::MappingCache>(
                (work_ / "replay-cache").string());
            warmTier_ = std::make_unique<TieredMappingStore>(warmDisk_.get());
            io::ServiceConfig cfg;
            cfg.cacheDir = (work_ / "service-cache").string();
            service_ = std::make_unique<io::CompilationService>(cfg);
        } else if (mode_ == "none") {
            io::ServiceConfig cfg;
            cfg.memoryStore = false;
            service_ = std::make_unique<io::CompilationService>(cfg);
        }
    }

    /** Fill the warm tiers: one untraced compile and one replay per
        request, whose spans are dropped. */
    void
    warm(const std::vector<Request> &reqs)
    {
        if (mode_ != "warm")
            return;
        SpanLog scratch;
        for (const Request &r : reqs) {
            serviceCompile(r, scratch, 0);
            replay(r, scratch, 0);
        }
    }

    /** One untraced CompilationService::compile; returns its weight. */
    uint64_t
    serviceCompile(const Request &r, SpanLog &log, uint64_t request)
    {
        io::CompileRequest req;
        req.path = r.input;
        req.mapping = r.kind;
        req.device = r.device;
        req.outDir = (work_ / "service-out").string();
        const fs::path fresh_dir = work_ / "service-fresh";
        if (mode_ == "fresh")
            fs::remove_all(fresh_dir);
        std::optional<StatusOr<io::CompileResponse>> resp;
        {
            Span span(log, "service", 0, request);
            if (mode_ == "fresh") {
                // A one-shot process builds its service, compiles, and
                // flushes the cache index when the service goes away.
                io::ServiceConfig cfg;
                cfg.cacheDir = fresh_dir.string();
                io::CompilationService fresh(cfg);
                resp.emplace(fresh.compile(req));
            } else {
                resp.emplace(service_->compile(req));
            }
        }
        if (!resp->ok())
            throw std::runtime_error(r.input + ": " +
                                     resp->status().message());
        return resp->value().pauliWeight.value_or(0);
    }

    /** The traced replay of one request; returns its Pauli weight. */
    uint64_t
    replay(const Request &r, SpanLog &log, uint64_t request)
    {
        const fs::path fresh_dir = work_ / "replay-fresh";
        if (mode_ == "fresh")
            fs::remove_all(fresh_dir);
        Span root(log, "request", 0, request);
        const uint64_t rid = root.id();

        const bool fcidump = fs::path(r.input).extension() == ".fcidump";
        std::vector<FermionTerm> terms;
        FermionHamiltonian molecule;
        uint32_t modes = 0;
        {
            Span s(log, "parse", rid, request);
            if (fcidump) {
                molecule = io::loadFcidumpHamiltonian(r.input);
                modes = molecule.numModes();
                s.count("terms", static_cast<double>(molecule.size()));
            } else {
                std::ifstream in(r.input);
                io::FermionTextInfo info = io::streamFermionText(
                    in, [&](FermionTerm &&t) {
                        terms.push_back(std::move(t));
                        return true;
                    });
                modes = info.numModes;
                s.count("terms", static_cast<double>(terms.size()));
            }
        }

        MajoranaPolynomial poly;
        {
            Span s(log, "preprocess", rid, request);
            io::ShardedMajoranaPreprocessor acc;
            if (fcidump)
                for (const FermionTerm &t : molecule.terms())
                    acc.add(FermionTerm(t));
            else
                for (FermionTerm &t : terms)
                    acc.add(std::move(t));
            acc.ensureModes(modes);
            poly = acc.finish();
            s.count("monomials", static_cast<double>(poly.size()));
        }

        uint64_t hash = 0;
        {
            Span s(log, "hash", rid, request);
            hash = io::majoranaContentHash(poly);
        }

        const Mapper *mapper = MapperRegistry::instance().find(r.kind);
        if (!mapper)
            throw std::runtime_error("unknown mapping " + r.kind);
        std::unique_ptr<io::MappingCache> fresh_disk;
        std::unique_ptr<TieredMappingStore> fresh_tier;
        MappingStore *store = warmTier_.get();
        std::optional<MappingStore::Entry> hit;
        if (mode_ != "none") {
            Span s(log, "store.load", rid, request);
            if (mode_ == "fresh") {
                fresh_disk =
                    std::make_unique<io::MappingCache>(fresh_dir.string());
                fresh_tier =
                    std::make_unique<TieredMappingStore>(fresh_disk.get());
                store = fresh_tier.get();
            }
            hit = store->load(hash, mapper->name());
            s.count("loads", 1);
            s.count("hits", hit ? 1 : 0);
        }

        MappingResult built;
        if (hit) {
            built.mapping = std::move(hit->mapping);
            built.tree = std::move(hit->tree);
            built.metrics.candidates = hit->candidates;
        } else {
            Span s(log, "build", rid, request);
            MappingRequest mr;
            mr.kind = r.kind;
            mr.poly = &poly;
            if (!r.device.empty() && mapper->capabilities().deviceAware)
                mr.options["device"] = r.device;
            StatusOr<MappingResult> b = MapperRegistry::instance().build(mr);
            if (!b.ok())
                throw std::runtime_error(r.input + ": " +
                                         b.status().message());
            built = std::move(b).value();
            s.count("candidates",
                    static_cast<double>(built.metrics.candidates.value_or(0)));
        }
        if (!hit && store) {
            Span s(log, "store.save", rid, request);
            MappingStore::Entry entry;
            entry.mapping = built.mapping;
            entry.tree = built.tree;
            entry.candidates = built.metrics.candidates;
            store->save(hash, mapper->name(), entry);
            // A one-shot process flushes the cache index when its store
            // goes away; that write belongs to the store layer too.
            fresh_tier.reset();
            fresh_disk.reset();
        }

        PauliSum hq;
        {
            Span s(log, "map", rid, request);
            QubitMappingEngine engine(built.mapping);
            engine.addBatch(poly.terms());
            hq = engine.finish();
            s.count("pauli_terms", static_cast<double>(hq.size()));
        }

        if (!r.device.empty()) {
            Span s(log, "route", rid, request);
            StatusOr<CouplingMap> dev = device::resolveDevice(r.device);
            if (!dev.ok())
                throw std::runtime_error(dev.status().message());
            StatusOr<device::HardwareCost> cost =
                device::evaluateHardwareCost(poly, built.mapping, dev.value());
            if (!cost.ok())
                throw std::runtime_error(cost.status().message());
            s.count("swaps", static_cast<double>(cost->swaps));
            s.count("cnots", static_cast<double>(cost->cnots));
            s.count("depth", static_cast<double>(cost->depth));
        }

        {
            Span s(log, "emit", rid, request);
            const fs::path dir = work_ / "replay-out";
            fs::create_directories(dir);
            const std::string stem = fs::path(r.input).stem().string();
            uint64_t bytes = 0;
            auto save = [&](const std::string &suffix,
                            const io::JsonValue &doc) {
                const fs::path p = dir / (stem + suffix);
                io::saveJsonFile(p.string(), doc);
                bytes += static_cast<uint64_t>(fs::file_size(p));
            };
            save(".mapping.json", io::mappingToJson(built.mapping));
            if (built.tree)
                save(".tree.json", io::treeToJson(*built.tree));
            save(".qubit.json", io::pauliSumToJson(hq));
            s.count("bytes", static_cast<double>(bytes));
        }
        return hq.pauliWeight();
    }

  private:
    std::string mode_;
    fs::path work_;
    std::unique_ptr<io::MappingCache> warmDisk_;
    std::unique_ptr<TieredMappingStore> warmTier_;
    std::unique_ptr<io::CompilationService> service_;
};

int
cmdReplay(int argc, char **argv)
{
    if (argc != 7)
        throw std::runtime_error(
            "usage: replay MANIFEST STORE SECONDS WORKDIR SPANS_OUT");
    const std::vector<Request> reqs = readManifest(argv[2]);
    const double seconds = std::stod(argv[4]);
    Replayer replayer(argv[3], argv[5]);
    replayer.warm(reqs);

    SpanLog log;
    uint64_t request = 0;
    int passes = 0;
    const int64_t start = nowNs();
    while (passes < 2 || (nowNs() - start) * 1e-9 < seconds) {
        for (const Request &r : reqs) {
            ++request;
            // The untraced reference and the traced replay alternate, so
            // both see the same machine state.
            const uint64_t reference = replayer.serviceCompile(r, log,
                                                               request);
            const uint64_t replayed = replayer.replay(r, log, request);
            if (reference != replayed)
                throw std::runtime_error(
                    r.input + ": replayed pauli weight " +
                    std::to_string(replayed) + " != service " +
                    std::to_string(reference));
        }
        ++passes;
    }
    log.write(argv[6]);
    std::cout << "{\"requests\": " << request << ", \"passes\": " << passes
              << "}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string cmd = argc > 1 ? argv[1] : "";
        if (cmd == "corpus")
            return cmdCorpus(argc, argv);
        if (cmd == "replay")
            return cmdReplay(argc, argv);
        std::cerr << "usage: e2e_probe corpus|replay ...\n";
        return 64;
    } catch (const std::exception &e) {
        std::cerr << "e2e_probe: " << e.what() << "\n";
        return 1;
    }
}
