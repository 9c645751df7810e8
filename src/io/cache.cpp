#include "io/cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

namespace {

constexpr int kCacheVersion = 1;
/** The usage index older builds kept; gc() removes it and its debris. */
constexpr const char *kLegacyIndexFile = "index.json";
constexpr const char *kQuarantineDir = "quarantine";
/** Temp files from interrupted writers older than this are gc()'d. */
constexpr int64_t kTmpMaxAgeSeconds = 3600;

int64_t
wallClockNow()
{
    return static_cast<int64_t>(std::time(nullptr));
}

/** stat() a file; false when it vanished (concurrent eviction). */
bool
statFile(const std::string &path, uint64_t &size, int64_t &mtime)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    size = static_cast<uint64_t>(st.st_size);
    mtime = static_cast<int64_t>(st.st_mtime);
    return true;
}

bool
isTmpFile(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

bool isEntryFile(const std::string &name);

bool
isDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (c < '0' || c > '9')
            return false;
    return true;
}

/**
 * A temp file THIS cache's writers create: an entry-file name (or the
 * legacy index name) plus ".tmp.<pid>.<counter>". gc() deletes only
 * these — a mistargeted directory's unrelated "*.tmp.*" files are not
 * cache debris.
 */
bool
isCacheTmpFile(const std::string &name)
{
    const size_t pos = name.find(".tmp.");
    if (pos == std::string::npos)
        return false;
    const std::string base = name.substr(0, pos);
    if (base != kLegacyIndexFile && !isEntryFile(base))
        return false;
    const std::string rest = name.substr(pos + 5);
    const size_t dot = rest.find('.');
    if (dot == std::string::npos)
        return false;
    return isDigits(rest.substr(0, dot)) && isDigits(rest.substr(dot + 1));
}

/**
 * An entry file matches exactly the names store() creates:
 * <16 lowercase hex>-<kind>.json. Anything else in the directory —
 * index.json, temp files, and above all unrelated user files when the
 * cache path is mistargeted at an output directory — is never treated
 * (or deleted!) as a cache entry.
 */
bool
isEntryFile(const std::string &name)
{
    constexpr size_t hex = 16;
    constexpr const char *suffix = ".json";
    constexpr size_t suffix_len = 5;
    if (isTmpFile(name) || name.size() < hex + 1 + 1 + suffix_len)
        return false;
    for (size_t i = 0; i < hex; ++i) {
        const char c = name[i];
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    if (name[hex] != '-')
        return false;
    if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0)
        return false;
    // A non-empty kind between the dash and the extension.
    return name.size() - suffix_len > hex + 1;
}

/**
 * Stream @p body into @p path and fsync it before returning, so the
 * subsequent rename can never publish a name pointing at data the disk
 * hasn't seen (the power-loss hole of a plain write + rename).
 */
void
writeFileDurable(const std::string &path,
                 const std::function<void(JsonWriter &)> &body)
{
    try {
        writeJsonFile(path, 2, /*durable=*/true, body);
    } catch (const std::system_error &e) {
        throw ParseError(std::string("write failed: ") + e.what());
    }
}

/** Best-effort directory fsync: makes a completed rename durable. */
void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

MappingCache::MappingCache(std::string dir) : dir_(std::move(dir)) {}

std::string
MappingCache::entryPath(uint64_t content_hash,
                        const std::string &kind) const
{
    return (fs::path(dir_) / (hashToHex(content_hash) + "-" + kind +
                              ".json"))
        .string();
}

std::optional<MappingStore::Entry>
MappingCache::load(uint64_t content_hash, const std::string &kind)
{
    trace::Span span("cache", "lookup");
    const std::string path = entryPath(content_hash, kind);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return std::nullopt;

    // A cache is an accelerator, never a correctness dependency: a
    // truncated or corrupt entry (interrupted writer, bit rot) is
    // treated as a miss so the caller recomputes — it must not kill a
    // whole batch run. The damaged file is moved into quarantine/ so it
    // is never re-read, stays available for post-mortem until the next
    // gc(), and the recompute's store() recreates a clean entry. A
    // key-mismatched entry (hash collision) is healthy and stays put.
    try {
        JsonValue doc = loadJsonFile(path);
        // Injection point: an entry that reads back damaged (torn
        // write, bit rot) despite parsing — drives the quarantine path
        // on otherwise healthy files. Fail models a transient read
        // error: a plain miss, entry left in place.
        switch (fault::at("cache.read")) {
          case fault::Action::Throw:
            throw ParseError("fault injected: cache.read");
          case fault::Action::Fail: return std::nullopt;
          case fault::Action::None: break;
        }
        checkEnvelope(doc, "hatt-cache", kCacheVersion);
        if (doc.at("content_hash").asString() != hashToHex(content_hash) ||
            doc.at("kind").asString() != kind)
            return std::nullopt;

        MappingStore::Entry hit;
        hit.mapping = mappingFromJson(doc.at("mapping"));
        if (const JsonValue *tree = doc.find("tree"))
            hit.tree = treeFromJson(*tree);
        if (const JsonValue *cand = doc.find("candidates"))
            if (cand->isNumber())
                hit.candidates = static_cast<uint64_t>(
                    cand->asInt(0, INT64_MAX));
        hit.tier = "disk";
        // The hit is the entry's last use: its mtime is what gc() ages
        // and ranks by. Best effort — a read-only cache still serves.
        ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
        return hit;
    } catch (const std::exception &) {
        // ParseError from the loader/validators, or std::invalid_argument
        // from PauliString reconstruction on mangled labels.
        quarantineEntry(path);
        return std::nullopt;
    }
}

std::string
MappingCache::quarantinePath() const
{
    return (fs::path(dir_) / kQuarantineDir).string();
}

void
MappingCache::quarantineEntry(const std::string &path) const
{
    const std::string name = fs::path(path).filename().string();
    metrics::add("cache.quarantined");
    trace::instant("cache", "quarantine:" + name);
    std::error_code ec;
    fs::create_directories(quarantinePath(), ec);
    if (!ec) {
        // Re-quarantining the same name overwrites the earlier copy:
        // the newest damage is the interesting one.
        fs::rename(path, fs::path(quarantinePath()) / name, ec);
    }
    if (ec)
        fs::remove(path, ec); // can't move it aside: drop it instead
    std::lock_guard<std::mutex> lock(mutex_);
    quarantined_.insert(name);
}

size_t
MappingCache::quarantinedCount() const
{
    std::error_code ec;
    if (!fs::is_directory(quarantinePath(), ec))
        return 0;
    size_t count = 0;
    for (const fs::directory_entry &de :
         fs::directory_iterator(quarantinePath(), ec))
        if (de.is_regular_file(ec))
            ++count;
    return count;
}

bool
MappingCache::wasQuarantined(uint64_t content_hash,
                             const std::string &kind) const
{
    const std::string name =
        hashToHex(content_hash) + "-" + kind + ".json";
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_.count(name) != 0;
}

bool
MappingCache::takeQuarantined(uint64_t content_hash, const std::string &kind)
{
    const std::string name =
        hashToHex(content_hash) + "-" + kind + ".json";
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_.erase(name) != 0;
}

void
MappingCache::store(uint64_t content_hash, const std::string &kind,
                    const FermionQubitMapping &mapping,
                    const TernaryTree *tree,
                    std::optional<uint64_t> candidates)
{
    trace::Span span("cache", "store");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw ParseError("cannot create cache directory " + dir_ + ": " +
                         ec.message());

    // Atomic, durable publish: write a writer-unique temp file in the
    // same directory, fsync it, rename over the entry, fsync the
    // directory — concurrent writers of the same key each publish a
    // complete file, last rename wins (no lock needed: writers share
    // no file until the rename), and a power cut can only leave the
    // old entry or the new one, never a torn file under the live name.
    const std::string path = entryPath(content_hash, kind);
    const std::string tmp = tmpPathFor(path);
    // Injection point: Throw dies before touching disk; Fail dies
    // between the temp write and the publish rename, leaving exactly
    // the debris an interrupted writer would (gc() cleans it up).
    const fault::Action write_fault = fault::at("cache.write");
    if (write_fault == fault::Action::Throw)
        throw ParseError("cannot write cache entry " + path +
                         " (fault injected: cache.write)");
    writeFileDurable(tmp, [&](JsonWriter &w) {
        w.beginObject();
        w.key("format");
        w.string("hatt-cache");
        w.key("version");
        w.number(kCacheVersion);
        w.key("content_hash");
        w.string(hashToHex(content_hash));
        w.key("kind");
        w.string(kind);
        w.key("mapping");
        writeMappingJson(w, mapping);
        if (tree) {
            w.key("tree");
            writeTreeJson(w, *tree);
        }
        if (candidates) {
            w.key("candidates");
            w.number(static_cast<double>(*candidates));
        }
        w.endObject();
    });
    if (write_fault == fault::Action::Fail)
        throw ParseError("cannot publish cache entry " + path +
                         " (fault injected: cache.write)");
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        throw ParseError("cannot publish cache entry " + path);
    }
    fsyncDir(dir_);
    metrics::add("cache.stores");
}

void
MappingCache::save(uint64_t content_hash, const std::string &kind,
                   const MappingStore::Entry &entry)
{
    // The registry-facing cache is strictly advisory: the mapping was
    // already computed, so a failed persist (full disk, injected
    // cache.write fault) must not fail the build that produced it.
    // Direct store() callers still see the ParseError.
    try {
        store(content_hash, kind, entry.mapping,
              entry.tree ? &*entry.tree : nullptr, entry.candidates);
    } catch (const std::exception &) {
    }
}

std::vector<CacheEntryFile>
MappingCache::scanEntries() const
{
    std::vector<CacheEntryFile> entries;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (!isEntryFile(name))
            continue;
        CacheEntryFile e;
        e.file = name;
        if (!statFile(de.path().string(), e.size, e.lastUsed))
            continue; // concurrently evicted
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CacheEntryFile &a, const CacheEntryFile &b) {
                  return a.file < b.file;
              });
    return entries;
}

CacheGcStats
MappingCache::gc(const CacheGcOptions &options)
{
    CacheGcStats stats;
    std::error_code ec;
    if (!fs::is_directory(dir_, ec))
        return stats;

    const int64_t now = options.now ? *options.now : wallClockNow();

    // Purge quarantined entries: files load() moved aside are kept
    // for post-mortem only until the next gc pass.
    if (fs::is_directory(quarantinePath(), ec)) {
        for (const fs::directory_entry &de :
             fs::directory_iterator(quarantinePath(), ec)) {
            std::error_code rec;
            if (fs::remove(de.path(), rec))
                ++stats.quarantinePurged;
        }
    }

    // Clear crash debris: temp files an interrupted cache writer left
    // behind (and only those — see isCacheTmpFile). Live writers publish
    // within milliseconds, so an hour-old temp is never in flight.
    // Judged against the same `now` as the age policy, so an injected
    // clock governs the whole pass.
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (!isCacheTmpFile(name))
            continue;
        uint64_t size = 0;
        int64_t mtime = 0;
        if (statFile(de.path().string(), size, mtime) &&
            now - mtime > kTmpMaxAgeSeconds)
            fs::remove(de.path(), ec);
    }

    // Directories written by older builds carry a usage index; the
    // entry mtimes below supersede it.
    fs::remove(fs::path(dir_) / kLegacyIndexFile, ec);

    std::vector<CacheEntryFile> entries = scanEntries();
    stats.entries = entries.size();
    for (const CacheEntryFile &e : entries)
        stats.bytesBefore += e.size;
    stats.bytesAfter = stats.bytesBefore;

    // Oldest last-used first; equal times break by file name so a gc
    // pass is deterministic given the same directory state. Age-stale
    // entries form a prefix of this order and all go; after them, LRU
    // entries go while the rest exceeds the byte budget.
    std::sort(entries.begin(), entries.end(),
              [](const CacheEntryFile &a, const CacheEntryFile &b) {
                  return a.lastUsed != b.lastUsed ? a.lastUsed < b.lastUsed
                                                  : a.file < b.file;
              });
    uint64_t remaining = stats.bytesBefore;
    for (const CacheEntryFile &e : entries) {
        const bool stale = options.maxAgeSeconds &&
                           now - e.lastUsed > *options.maxAgeSeconds;
        if (!stale && !(options.maxBytes && remaining > *options.maxBytes))
            break;
        remaining -= e.size;
        std::error_code rec;
        fs::remove(fs::path(dir_) / e.file, rec);
        // Couldn't delete (permissions, pinned file): the entry is still
        // on disk, so it is not counted as evicted and its bytes stay.
        if (!rec) {
            ++stats.evicted;
            stats.bytesAfter -= e.size;
        }
    }
    return stats;
}

} // namespace hatt::io
