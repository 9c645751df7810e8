#include "mapping/store.hpp"

#include "common/metrics.hpp"

namespace hatt {

std::optional<MappingStore::Entry>
TieredMappingStore::load(uint64_t content_hash, const std::string &kind)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(Key(content_hash, kind));
        if (it != entries_.end()) {
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
    Entry stored = entry;
    stored.tier.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.insert_or_assign(Key(content_hash, kind), std::move(stored));
}

size_t
TieredMappingStore::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
TieredMappingStore::clearMemory()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

} // namespace hatt
