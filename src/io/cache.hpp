#ifndef HATT_IO_CACHE_HPP
#define HATT_IO_CACHE_HPP

/**
 * @file
 * Content-addressed mapping cache: optimized mappings (and their trees)
 * are stored under <dir>/<content-hash>-<kind>.json, keyed by the
 * splitmix64 content hash of the canonical Majorana form plus the
 * mapping kind string. `hattc` consults it to skip re-optimizing a
 * Hamiltonian it has already seen; batch/service callers share one
 * directory across threads and processes (files are written atomically
 * via rename, and load()/store() share no mutable state beyond the
 * mutex-guarded quarantine record).
 *
 * Lifecycle: the directory scheme is O(1) lookup but unbounded growth,
 * so gc() evicts by age and/or total size, least recently used first.
 * The directory is its own index: an entry's last use is its file's
 * mtime. store()'s rename publishes a fresh mtime, and a load() hit
 * touches the file (best effort — a read-only cache still serves hits).
 *
 * Robustness: entry writes are power-loss-safe (the temp file is
 * fsync'd before the rename, and the directory after); concurrent
 * writers need no lock, since each writes its own temp file
 * (<entry>.tmp.<pid>.<n>) and the rename publishes it whole, last
 * writer wins. A corrupt entry discovered by load() is moved aside
 * into <dir>/quarantine/ instead of being silently re-read every run;
 * quarantined files are purged by gc().
 */

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fermion/majorana.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt::io {

/** One entry file with its size and last-used time. */
struct CacheEntryFile
{
    std::string file;    //!< entry file name (<hash>-<kind>.json)
    uint64_t size = 0;   //!< bytes on disk
    int64_t lastUsed = 0; //!< file mtime (unix s): latest hit or store
};

/** Eviction policy for MappingCache::gc(). */
struct CacheGcOptions
{
    /** Evict least-recently-used entries until the total is <= this. */
    std::optional<uint64_t> maxBytes;
    /** Evict entries whose last use is older than this many seconds. */
    std::optional<int64_t> maxAgeSeconds;
    /** Override "now" (unix seconds) for the age policy; tests use it. */
    std::optional<int64_t> now;
};

/** What a gc() pass did. */
struct CacheGcStats
{
    size_t entries = 0;       //!< entry files before the pass
    size_t evicted = 0;       //!< entry files removed
    uint64_t bytesBefore = 0; //!< entry bytes before the pass
    uint64_t bytesAfter = 0;  //!< entry bytes surviving
    size_t quarantinePurged = 0; //!< quarantined files deleted
};

/**
 * Implements hatt::MappingStore, so MapperRegistry::build() layers this
 * cache over every mapper: load() is the one read, save() the advisory
 * wrapper over the throwing store().
 */
class MappingCache : public MappingStore
{
  public:
    /** Creates @p dir (and parents) on first store if missing. */
    explicit MappingCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /** Cache file path for (hash, kind). */
    std::string entryPath(uint64_t content_hash,
                          const std::string &kind) const;

    /**
     * Look up (hash, kind); returns nullopt when absent. A hit is
     * stamped with tier "disk". A present but truncated/corrupt entry
     * is also a miss: the damaged file is moved into <dir>/quarantine/
     * (see wasQuarantined()), callers recompute, and the subsequent
     * store() recreates the entry atomically, so one damaged entry
     * cannot abort a batch run. A key-mismatched entry (hash collision)
     * is a plain miss and is left in place. A hit sets the entry's
     * mtime (its last-used time) to now, best effort.
     */
    std::optional<MappingStore::Entry>
    load(uint64_t content_hash, const std::string &kind) override;

    /** Store (hash, kind) -> mapping [+ tree]; overwrites atomically.
        @throws ParseError when the entry cannot be written. */
    void store(uint64_t content_hash, const std::string &kind,
               const FermionQubitMapping &mapping,
               const TernaryTree *tree = nullptr,
               std::optional<uint64_t> candidates = std::nullopt);

    /** MappingStore adapter over store(). Best-effort: a persist
        failure is swallowed — the cache is advisory, and the mapping
        being saved was already computed successfully. */
    void save(uint64_t content_hash, const std::string &kind,
              const MappingStore::Entry &entry) override;

    /** The directory's entry files with their sizes and last-used
        times (file mtimes), sorted by file name. */
    std::vector<CacheEntryFile> scanEntries() const;

    /**
     * Evict entries per @p options (age filter first, then LRU until
     * under the byte budget; ties broken by file name), delete stale
     * temp files from interrupted writers, purge the quarantine
     * directory, and remove a legacy index.json left by older builds.
     */
    CacheGcStats gc(const CacheGcOptions &options);

    /** Directory corrupt entries are moved into (<dir>/quarantine). */
    std::string quarantinePath() const;

    /** Files currently sitting in the quarantine directory. */
    size_t quarantinedCount() const;

    /** True when THIS instance quarantined (hash, kind) and no
        takeQuarantined() has claimed it since. */
    bool wasQuarantined(uint64_t content_hash,
                        const std::string &kind) const;

    /** wasQuarantined(), and forget the record: the compile whose own
        lookup missed calls this right after, so the quarantine is
        reported by that compile and not by later hits on the rebuilt
        entry. */
    bool takeQuarantined(uint64_t content_hash, const std::string &kind);

  private:
    /** Move a damaged entry file into quarantine (remove on failure)
        and remember its name for wasQuarantined(). */
    void quarantineEntry(const std::string &path) const;

    std::string dir_;
    mutable std::mutex mutex_;
    /** Entry file names this instance moved to quarantine and no
        takeQuarantined() has claimed yet (guarded by mutex_). */
    mutable std::set<std::string> quarantined_;
};

} // namespace hatt::io

#endif // HATT_IO_CACHE_HPP
