#include "mapping/store.hpp"

#include <functional>

#include "common/metrics.hpp"

namespace hatt {

namespace {

/** Mix (hash, kind) into a shard index: splitmix64 finisher over the
    content hash xor a string hash, so one hot content hash with many
    kinds still spreads across shards. */
size_t
shardIndex(uint64_t content_hash, const std::string &kind, size_t shards)
{
    uint64_t x = content_hash ^ std::hash<std::string>{}(kind);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x % shards);
}

} // namespace

TieredMappingStore::Shard &
TieredMappingStore::shardFor(uint64_t content_hash, const std::string &kind)
{
    return shards_[shardIndex(content_hash, kind, kShards)];
}

const TieredMappingStore::Shard &
TieredMappingStore::shardFor(uint64_t content_hash,
                             const std::string &kind) const
{
    return shards_[shardIndex(content_hash, kind, kShards)];
}

std::optional<MappingStore::Entry>
TieredMappingStore::load(uint64_t content_hash, const std::string &kind)
{
    {
        Shard &shard = shardFor(content_hash, kind);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(Key(content_hash, kind));
        if (it != shard.entries.end()) {
            metrics::add("store.memory_hits");
            Entry out = it->second;
            out.tier = "memory";
            return out;
        }
    }
    if (!backing_)
        return std::nullopt;
    std::optional<Entry> hit = backing_->load(content_hash, kind);
    if (!hit)
        return std::nullopt;
    metrics::add("store.backing_hits");
    // Read promotion: the next load() of this key is a memory hit. The
    // promoted copy is stored tier-less; tiers are stamped at serve
    // time, not at rest.
    publish(content_hash, kind, *hit);
    metrics::add("store.promotions");
    return hit;
}

void
TieredMappingStore::save(uint64_t content_hash, const std::string &kind,
                         const Entry &entry)
{
    // Write-through, durable tier first: if the backing persist fails
    // (it is best-effort by contract), the memory tier still serves
    // this process, and a later recompute re-attempts the disk write.
    if (backing_)
        backing_->save(content_hash, kind, entry);
    publish(content_hash, kind, entry);
}

void
TieredMappingStore::publish(uint64_t content_hash, const std::string &kind,
                            const Entry &entry)
{
    Shard &shard = shardFor(content_hash, kind);
    Entry stored = entry;
    stored.tier.clear();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.insert_or_assign(Key(content_hash, kind),
                                   std::move(stored));
}

size_t
TieredMappingStore::entryCount() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.entries.size();
    }
    return n;
}

void
TieredMappingStore::clearMemory()
{
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.clear();
    }
}

} // namespace hatt
