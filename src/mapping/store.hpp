#ifndef HATT_MAPPING_STORE_HPP
#define HATT_MAPPING_STORE_HPP

/**
 * @file
 * Two-tier MappingStore: a thread-safe in-memory tier (one ordered map
 * under one mutex) layered in front of an optional durable backing store (the
 * on-disk io::MappingCache in the shipped stack). Implements the same
 * `MappingStore` interface the MapperRegistry consults, so every
 * mapper gets both tiers for free:
 *
 *   load():  memory first; on a memory miss the backing store is
 *            consulted and a backing hit is PROMOTED into memory, so a
 *            long-lived process (batch run, future hattd) serves
 *            repeats at memory speed;
 *   save():  write-through — the durable tier is written first (it is
 *            the authoritative copy and its persist is best-effort by
 *            the MappingStore contract), then the entry is published
 *            to memory.
 *
 * Entries served from memory report Entry::tier == "memory"; entries
 * served by the backing store keep whatever tier it stamped ("disk"
 * for MappingCache). The registry copies that tier into
 * MappingMetrics::cacheTier, so batch_stats.json can attribute every
 * hit to the tier that actually served it.
 *
 * Determinism: the memory tier only memoizes what the backing/build
 * path would produce anyway, so a warm in-process run stays
 * byte-identical to a cold one. The tier's traffic is reported only
 * through the metrics registry (store.memory_hits, store.backing_hits,
 * store.promotions); it never emits a registry-level miss counter, so
 * the pinned mapping.cache_hits/cache_misses semantics are untouched.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "mapping/mapper.hpp"

namespace hatt {

class TieredMappingStore : public MappingStore
{
  public:
    /** @p backing is borrowed (may be null: memory-only store) and must
        outlive this object. */
    explicit TieredMappingStore(MappingStore *backing = nullptr)
        : backing_(backing)
    {
    }

    TieredMappingStore(const TieredMappingStore &) = delete;
    TieredMappingStore &operator=(const TieredMappingStore &) = delete;

    std::optional<Entry> load(uint64_t content_hash,
                              const std::string &kind) override;

    void save(uint64_t content_hash, const std::string &kind,
              const Entry &entry) override;

    /** Entries resident in the memory tier. */
    size_t entryCount() const;

    /** Drop the memory tier (the backing store is untouched). */
    void clearMemory();

  private:
    using Key = std::pair<uint64_t, std::string>;

    /** Publish @p entry under (hash, kind) (overwrites). */
    void publish(uint64_t content_hash, const std::string &kind,
                 const Entry &entry);

    MappingStore *backing_;
    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_; //!< guarded by mutex_
};

} // namespace hatt

#endif // HATT_MAPPING_STORE_HPP
