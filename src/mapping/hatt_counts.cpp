#include "mapping/hatt_counts.hpp"

#include <algorithm>
#include <cassert>

namespace hatt::detail {

size_t
TermCounts::SupportHash::operator()(uint32_t t) const
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int id : owner->support(t))
        h = splitmix64(h ^ static_cast<uint64_t>(id));
    return h;
}

bool
TermCounts::SupportEq::operator()(uint32_t a, uint32_t b) const
{
    return std::ranges::equal(owner->support(a), owner->support(b));
}

TermCounts::TermCounts(uint32_t max_id)
    : dedup_(16, SupportHash{this}, SupportEq{this}), cnt1_(max_id, 0),
      adj_(max_id), inv_(max_id), changed_stamp_(max_id, 0)
{
}

void
TermCounts::adjAdd(int a, int b, int64_t mult)
{
    adj_[a][b] += mult;
    adj_[b][a] += mult;
}

int64_t
TermCounts::pairCount(int a, int b) const
{
    const auto &row = adj_[a];
    auto it = row.find(b);
    return it == row.end() ? 0 : it->second;
}

bool
TermCounts::dedupInsert(uint32_t term, int64_t mult)
{
    auto [it, inserted] = dedup_.insert(term);
    if (inserted) {
        mult_[term] = mult;
        return true;
    }
    mult_[*it] += mult;
    mult_[term] = 0;
    return false;
}

void
TermCounts::addTerm(std::span<const uint32_t> support, int64_t mult)
{
    assert(!support.empty() && mult > 0);
    assert(std::ranges::is_sorted(support) && support.back() < cnt1_.size());
    const uint32_t term = static_cast<uint32_t>(mult_.size());
    off_.push_back(ids_.size());
    len_.push_back(static_cast<uint32_t>(support.size()));
    ids_.insert(ids_.end(), support.begin(), support.end());
    mult_.push_back(0);
    if (!dedupInsert(term, mult)) {
        // Folded into an existing equal support: drop the tentative slot
        // (dedupInsert left it out of the dedup set).
        ids_.resize(off_.back());
        off_.pop_back();
        len_.pop_back();
        mult_.pop_back();
    }
}

void
TermCounts::finalize()
{
    for (uint32_t t = 0; t < mult_.size(); ++t) {
        const std::span<const int> s = support(t);
        for (size_t i = 0; i < s.size(); ++i) {
            cnt1_[s[i]] += mult_[t];
            inv_[s[i]].push_back(t);
            for (size_t j = i + 1; j < s.size(); ++j)
                adjAdd(s[i], s[j], mult_[t]);
        }
    }
}

const std::vector<int> &
TermCounts::merge(int a, int b, int c, int parent)
{
    assert(parent >= 0 && static_cast<size_t>(parent) < cnt1_.size());
    ++stamp_;
    changed_.assign(1, parent);
    changed_stamp_[parent] = stamp_;

    // Reduce every live term holding a, b or c. The inverted index keeps
    // dead slots, and a term reached from a's list no longer holds b when
    // b's list reaches it: skip both.
    for (int merged : {a, b, c}) {
        for (uint32_t t : inv_[merged]) {
            if (mult_[t] == 0 ||
                !std::ranges::binary_search(support(t), merged))
                continue;
            const int64_t mult = mult_[t];
            dedup_.erase(t);

            // Seed reduction rule: drop a/b/c, append parent iff odd.
            int *first = ids_.data() + off_[t];
            uint32_t len = 0;
            int present = 0;
            for (uint32_t i = 0; i < len_[t]; ++i) {
                const int id = first[i];
                if (id == a || id == b || id == c) {
                    ++present;
                    continue;
                }
                first[len++] = id;
                // It shared this term with a merged node, so its row
                // loses that pair whatever the term becomes.
                if (changed_stamp_[id] != stamp_) {
                    changed_stamp_[id] = stamp_;
                    changed_.push_back(id);
                }
            }
            if (present & 1) {
                for (uint32_t i = 0; i < len; ++i)
                    adjAdd(first[i], parent, mult);
                cnt1_[parent] += mult;
                first[len++] = parent;
            }
            len_[t] = len;
            mult_[t] = 0;
            if (len == 0)
                continue; // fully settled: contributes no further weight
            if (dedupInsert(t, mult) && (present & 1))
                inv_[parent].push_back(t);
            // When folded into an existing term, that term already has
            // inverted index entries for exactly this support.
        }
        inv_[merged].clear(); // a, b, c never become active again
    }

    // Every term holding a, b or c was reduced above, so their pairs and
    // cnt1 are gone entirely.
    for (size_t i = 1; i < changed_.size(); ++i)
        for (int merged : {a, b, c})
            adj_[changed_[i]].erase(merged);
    for (int merged : {a, b, c}) {
        adj_[merged].clear();
        cnt1_[merged] = 0;
    }
    return changed_;
}

std::vector<std::pair<std::vector<int>, int64_t>>
TermCounts::snapshot() const
{
    std::vector<std::pair<std::vector<int>, int64_t>> out;
    for (uint32_t t = 0; t < mult_.size(); ++t) {
        if (mult_[t] == 0)
            continue;
        const std::span<const int> s = support(t);
        out.emplace_back(std::vector<int>(s.begin(), s.end()), mult_[t]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace hatt::detail
