#include "mapping/hatt_counts.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace hatt::detail {

namespace {

constexpr uint32_t kWordBits = 64;

} // namespace

TermCounts::TermCounts(uint32_t max_id)
    : max_id_(max_id), words_((max_id + kWordBits - 1) / kWordBits),
      dedup_(16, MaskSetHash{this}, MaskSetEq{this}), cnt1_(max_id, 0),
      adj_(max_id), inv_(max_id), changed_stamp_(max_id, 0)
{
    if (words_ == 0)
        words_ = 1;
}

uint64_t
TermCounts::maskHash(uint32_t term) const
{
    // Supports hold a handful of ids, so most words are zero: mix only
    // the nonzero ones, tagged with their index.
    const uint64_t *m = maskOf(term);
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ words_;
    for (uint32_t w = 0; w < words_; ++w)
        if (m[w] != 0)
            h = splitmix64(h ^ m[w] ^ (uint64_t{w} << 32));
    return h;
}

bool
TermCounts::masksEqual(uint32_t lhs, uint32_t rhs) const
{
    const uint64_t *a = maskOf(lhs);
    const uint64_t *b = maskOf(rhs);
    for (uint32_t w = 0; w < words_; ++w)
        if (a[w] != b[w])
            return false;
    return true;
}

void
TermCounts::maskIds(uint32_t term, std::vector<int> &out) const
{
    out.clear();
    const uint64_t *m = maskOf(term);
    for (uint32_t w = 0; w < words_; ++w) {
        uint64_t word = m[w];
        while (word) {
            int bit = std::countr_zero(word);
            out.push_back(static_cast<int>(w * kWordBits) + bit);
            word &= word - 1;
        }
    }
}

void
TermCounts::adjAdd(int a, int b, int64_t mult)
{
    auto bump = [&](int u, int v) {
        auto [it, inserted] = adj_[u].try_emplace(v, 0);
        it->second += mult;
        assert(it->second >= 0);
        if (it->second == 0)
            adj_[u].erase(it); // keep every stored count strictly positive
    };
    bump(a, b);
    bump(b, a);
}

int64_t
TermCounts::pairCount(int a, int b) const
{
    const auto &row = adj_[a];
    auto it = row.find(b);
    return it == row.end() ? 0 : it->second;
}

void
TermCounts::addCounts(const std::vector<int> &ids, int64_t mult)
{
    for (size_t i = 0; i < ids.size(); ++i) {
        cnt1_[ids[i]] += mult;
        for (size_t j = i + 1; j < ids.size(); ++j)
            adjAdd(ids[i], ids[j], mult);
    }
}

void
TermCounts::removeCounts(const std::vector<int> &ids, int64_t mult)
{
    for (size_t i = 0; i < ids.size(); ++i) {
        cnt1_[ids[i]] -= mult;
        assert(cnt1_[ids[i]] >= 0);
        for (size_t j = i + 1; j < ids.size(); ++j)
            adjAdd(ids[i], ids[j], -mult);
    }
}

bool
TermCounts::dedupInsert(uint32_t term, int64_t mult)
{
    auto [it, inserted] = dedup_.insert(term);
    if (inserted) {
        mult_[term] = mult;
        ++live_terms_;
        return true;
    }
    mult_[*it] += mult;
    mult_[term] = 0;
    return false;
}

void
TermCounts::addTerm(std::span<const uint32_t> support, int64_t mult)
{
    assert(!support.empty());
    const uint32_t term = static_cast<uint32_t>(mult_.size());
    bits_.resize(bits_.size() + words_, 0);
    mult_.push_back(0);
    hash_.push_back(0);
    touch_stamp_.push_back(0);
    uint64_t *m = maskOf(term);
    for (uint32_t id : support) {
        assert(id < max_id_);
        m[id / kWordBits] |= 1ULL << (id % kWordBits);
    }
    hash_[term] = maskHash(term);
    if (!dedupInsert(term, mult)) {
        // Folded into an existing equal support: drop the tentative slot
        // (dedupInsert left it out of the dedup set).
        bits_.resize(bits_.size() - words_);
        mult_.pop_back();
        hash_.pop_back();
        touch_stamp_.pop_back();
    }
}

void
TermCounts::finalize()
{
    for (uint32_t t = 0; t < mult_.size(); ++t) {
        if (mult_[t] == 0)
            continue;
        maskIds(t, scratch_ids_);
        addCounts(scratch_ids_, mult_[t]);
        for (int id : scratch_ids_)
            inv_[id].push_back(t);
    }
}

const std::vector<int> &
TermCounts::merge(int a, int b, int c, int parent)
{
    assert(parent >= 0 && static_cast<uint32_t>(parent) < max_id_);
    ++stamp_;
    changed_.assign(1, parent);
    changed_stamp_[parent] = stamp_;

    // Gather live terms whose support intersects {a, b, c}. The inverted
    // index may hold stale entries (dead terms, moved supports); filter by
    // re-checking the mask bit.
    scratch_terms_.clear();
    for (int id : {a, b, c}) {
        for (uint32_t t : inv_[id]) {
            if (t >= mult_.size() || mult_[t] == 0 ||
                touch_stamp_[t] == stamp_)
                continue;
            const uint64_t *m = maskOf(t);
            if (!(m[id / kWordBits] >> (id % kWordBits) & 1))
                continue;
            touch_stamp_[t] = stamp_;
            scratch_terms_.push_back(t);
        }
        inv_[id].clear(); // a, b, c never become active again
    }

    for (uint32_t t : scratch_terms_) {
        const int64_t mult = mult_[t];
        maskIds(t, scratch_ids_);
        removeCounts(scratch_ids_, mult);
        // Each id here shared a term with a, b or c, so its adjacency
        // row loses that entry: it changes whatever the term becomes.
        for (int id : scratch_ids_) {
            if (changed_stamp_[id] != stamp_ && id != a && id != b &&
                id != c) {
                changed_stamp_[id] = stamp_;
                changed_.push_back(id);
            }
        }
        dedup_.erase(t);
        --live_terms_;
        mult_[t] = 0;

        // Seed reduction rule: drop a/b/c, append parent iff odd count.
        uint64_t *m = maskOf(t);
        int present = 0;
        for (int id : {a, b, c}) {
            uint64_t bit = 1ULL << (id % kWordBits);
            if (m[id / kWordBits] & bit) {
                ++present;
                m[id / kWordBits] &= ~bit;
            }
        }
        assert(present > 0);
        if (present & 1)
            m[parent / kWordBits] |= 1ULL << (parent % kWordBits);

        bool empty = true;
        for (uint32_t w = 0; w < words_ && empty; ++w)
            empty = m[w] == 0;
        if (empty)
            continue; // fully settled: contributes no further weight

        hash_[t] = maskHash(t);
        const bool kept = dedupInsert(t, mult);
        maskIds(t, scratch_ids_);
        addCounts(scratch_ids_, mult);
        if (kept && (present & 1))
            inv_[parent].push_back(t);
        // When folded into an existing term, that term already has inverted
        // index entries for exactly this support.
    }
    return changed_;
}

std::vector<std::pair<std::vector<int>, int64_t>>
TermCounts::snapshot() const
{
    std::vector<std::pair<std::vector<int>, int64_t>> out;
    std::vector<int> ids;
    for (uint32_t t = 0; t < mult_.size(); ++t) {
        if (mult_[t] == 0)
            continue;
        maskIds(t, ids);
        out.emplace_back(ids, mult_[t]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace hatt::detail
