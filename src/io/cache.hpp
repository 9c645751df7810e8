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
 * via rename, and lookup()/store() touch no shared mutable state beyond
 * a mutex-guarded usage log).
 *
 * Lifecycle: the directory scheme is O(1) lookup but unbounded growth,
 * so the cache also maintains <dir>/index.json — one record per entry
 * file with its size and last-used time. lookup() hits and store()s are
 * logged in memory and folded into the index by flushIndex() (also run
 * by the destructor); gc() evicts by age and/or total size, oldest
 * last-used first, and rewrites the index to exactly the surviving
 * files. The index is advisory — a missing or stale index never breaks
 * lookups, and gc()/flushIndex() reconcile it against the directory.
 *
 * Robustness: entry and index writes are power-loss-safe (the temp file
 * is fsync'd before the rename, and the directory after), writers take
 * an advisory flock on <dir>/.lock with bounded exponential backoff
 * (proceeding best-effort when contended — rename publication stays
 * atomic either way), and a corrupt entry discovered by lookup() is
 * moved aside into <dir>/quarantine/ instead of being silently
 * re-read every run; quarantined files are counted in index.json and
 * purged by gc().
 */

#include <cstdint>
#include <map>
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

/** A cache hit: the stored mapping and, for tree mappings, its tree. */
struct CachedMapping
{
    FermionQubitMapping mapping;
    std::optional<TernaryTree> tree;
    /** Construction candidates (HATT kinds), so cache hits report the
        same determinism witness as the original build. */
    std::optional<uint64_t> candidates;
};

/** One index.json record: an entry file with size and last-used time. */
struct CacheIndexEntry
{
    std::string file;    //!< entry file name (<hash>-<kind>.json)
    uint64_t size = 0;   //!< bytes on disk
    int64_t lastUsed = 0; //!< unix seconds of the latest lookup/store
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
 * cache over every mapper (the load/save adapters below wrap
 * lookup/store).
 */
class MappingCache : public MappingStore
{
  public:
    /** Creates @p dir (and parents) on first store if missing. */
    explicit MappingCache(std::string dir);

    /** Folds any unflushed usage log into index.json (best effort). */
    ~MappingCache();

    MappingCache(const MappingCache &) = delete;
    MappingCache &operator=(const MappingCache &) = delete;

    const std::string &dir() const { return dir_; }

    /** Cache file path for (hash, kind). */
    std::string entryPath(uint64_t content_hash,
                          const std::string &kind) const;

    /**
     * Look up (hash, kind); returns nullopt when absent. A present but
     * truncated/corrupt entry is also a miss: the damaged file is moved
     * into <dir>/quarantine/ (see wasQuarantined()), callers recompute,
     * and the subsequent store() recreates the entry atomically, so one
     * damaged entry cannot abort a batch run. A key-mismatched entry
     * (hash collision) is a plain miss and is left in place. Hits are
     * logged for the index's last-used tracking.
     */
    std::optional<CachedMapping> lookup(uint64_t content_hash,
                                        const std::string &kind) const;

    /** Store (hash, kind) -> mapping [+ tree]; overwrites atomically. */
    void store(uint64_t content_hash, const std::string &kind,
               const FermionQubitMapping &mapping,
               const TernaryTree *tree = nullptr,
               std::optional<uint64_t> candidates = std::nullopt);

    /** MappingStore adapter over lookup() — the registry's cache hook. */
    std::optional<MappingStore::Entry>
    load(uint64_t content_hash, const std::string &kind) override;

    /** MappingStore adapter over store(). Best-effort: a persist
        failure is swallowed — the cache is advisory, and the mapping
        being saved was already computed successfully. */
    void save(uint64_t content_hash, const std::string &kind,
              const MappingStore::Entry &entry) override;

    /** Path of the index file (<dir>/index.json). */
    std::string indexPath() const;

    /**
     * Read index.json; missing or unparseable indexes yield an empty
     * list (the index is advisory, never a correctness dependency).
     */
    std::vector<CacheIndexEntry> loadIndex() const;

    /**
     * Reconcile the directory's entry files with the on-disk index and
     * the in-memory usage log: size from the file system, last-used as
     * the newest of {usage log, previous index, file mtime}. Sorted by
     * file name.
     */
    std::vector<CacheIndexEntry> scanEntries() const;

    /** As above against an already-loaded index, so a caller that also
        needs the index itself reads it exactly once (coherent view). */
    std::vector<CacheIndexEntry>
    scanEntries(const std::vector<CacheIndexEntry> &index) const;

    /**
     * Rewrite index.json from scanEntries() (atomic rename), clearing
     * the in-memory usage log. No-op when the directory doesn't exist.
     */
    void flushIndex();

    /** True when index.json lists exactly the on-disk entry files with
        their current sizes. */
    bool indexConsistent() const;

    /** The consistency predicate itself: does @p index list exactly the
        @p disk entries (files and sizes)? @p disk sorted by file. */
    static bool entriesMatch(std::vector<CacheIndexEntry> index,
                             const std::vector<CacheIndexEntry> &disk);

    /**
     * Evict entries per @p options (age filter first, then LRU until
     * under the byte budget; ties broken by file name), delete stale
     * temp files from interrupted writers, purge the quarantine
     * directory, and rewrite index.json to exactly the survivors.
     */
    CacheGcStats gc(const CacheGcOptions &options);

    /** Directory corrupt entries are moved into (<dir>/quarantine). */
    std::string quarantinePath() const;

    /** Files currently sitting in the quarantine directory. */
    size_t quarantinedCount() const;

    /** True when THIS instance quarantined (hash, kind) — lets a batch
        caller attribute a recompute to a corrupt cache entry. */
    bool wasQuarantined(uint64_t content_hash,
                        const std::string &kind) const;

  private:
    void recordUse(const std::string &file) const;

    /** Move a damaged entry file into quarantine (remove on failure)
        and remember its name for wasQuarantined(). */
    void quarantineEntry(const std::string &path) const;

    /** scanEntries() against explicit usage and index snapshots. */
    std::vector<CacheIndexEntry>
    scanMerged(const std::map<std::string, int64_t> &uses,
               const std::vector<CacheIndexEntry> &index) const;

    /** Take the usage log (leaving it empty) / merge one back in. */
    std::map<std::string, int64_t> takeUses() const;
    void restoreUses(const std::map<std::string, int64_t> &uses) const;

    std::string dir_;
    mutable std::mutex uses_mutex_;
    mutable std::map<std::string, int64_t> pending_uses_;
    /** Entry file names this instance moved to quarantine (guarded by
        uses_mutex_). */
    mutable std::set<std::string> quarantined_;
};

} // namespace hatt::io

#endif // HATT_IO_CACHE_HPP
