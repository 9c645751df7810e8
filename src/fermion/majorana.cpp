#include "fermion/majorana.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hatt {

namespace {

/** 32-bit hash of an index span (table slot and tag). */
uint32_t
hashIndices(std::span<const uint32_t> idx)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ idx.size();
    for (uint32_t x : idx)
        h = (h ^ x) * 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<uint32_t>(h);
}

} // namespace

std::string
MajoranaMonomial::toString() const
{
    std::ostringstream ss;
    ss << "(" << coeff.real();
    if (coeff.imag() != 0.0)
        ss << (coeff.imag() > 0 ? "+" : "") << coeff.imag() << "i";
    ss << ")";
    if (indices.empty())
        ss << " 1";
    for (uint32_t i : indices)
        ss << " M" << i;
    return ss.str();
}

MajoranaPolynomial
MajoranaPolynomial::fromFermion(const FermionHamiltonian &hf)
{
    StreamingMajoranaAccumulator acc(hf.numModes());
    for (const FermionTerm &term : hf.terms())
        acc.add(term);
    return acc.finish();
}

void
MajoranaPolynomial::add(cplx coeff, std::span<const uint32_t> indices)
{
    for (size_t i = 0; i + 1 < indices.size(); ++i)
        assert(indices[i] < indices[i + 1]);
    for ([[maybe_unused]] uint32_t i : indices)
        assert(i < numMajoranas());
    coeffs_.push_back(coeff);
    indices_.insert(indices_.end(), indices.begin(), indices.end());
    offsets_.push_back(indices_.size());
}

cplx
MajoranaPolynomial::constantTerm() const
{
    cplx c{};
    for (const MajoranaMonomial &t : *this)
        if (t.indices.empty())
            c += t.coeff;
    return c;
}

std::string
MajoranaPolynomial::toString() const
{
    std::ostringstream ss;
    for (size_t i = 0; i < size(); ++i) {
        if (i)
            ss << " + ";
        ss << (*this)[i].toString();
    }
    return ss.str();
}

void
StreamingMajoranaAccumulator::ensureModes(uint32_t modes)
{
    if (modes > poly_.num_modes_)
        poly_.num_modes_ = modes;
}

void
StreamingMajoranaAccumulator::add(const FermionTerm &term)
{
    const size_t k = term.ops.size();
    if (k > kMaxLadderOps)
        throw std::invalid_argument(
            "StreamingMajoranaAccumulator: term with > 30 ladder operators");
    for (const FermionOp &op : term.ops)
        ensureModes(op.mode + 1);

    // Lay every combination out in mode order: a stable insertion sort
    // of the op positions by mode, one sign flip per swap. Indices of
    // different modes then never swap below, so their anticommutation
    // signs are this one parity per term, and the per-combination sort
    // only moves 2j+1 ahead of 2j within a mode. The sign is the parity
    // of the whole permutation either way.
    uint32_t pos[kMaxLadderOps];
    double term_sign = 1.0;
    for (size_t p = 0; p < k; ++p) {
        size_t j = p;
        for (; j > 0 && term.ops[pos[j - 1]].mode > term.ops[p].mode; --j) {
            pos[j] = pos[j - 1];
            term_sign = -term_sign;
        }
        pos[j] = static_cast<uint32_t>(p);
    }

    // Expand the product over the two Majorana halves of each ladder op:
    //   a†_j = (M_2j - i M_2j+1)/2,  a_j = (M_2j + i M_2j+1)/2.
    // The coefficient sees *0.5, then *±i, per op in op order, then the
    // sort sign: that order fixes its bits, and with them the content
    // hash.
    uint32_t idx[kMaxLadderOps];
    const size_t combos = size_t{1} << k;
    for (size_t mask = 0; mask < combos; ++mask) {
        cplx coeff = term.coeff;
        for (size_t p = 0; p < k; ++p) {
            coeff *= 0.5;
            if ((mask >> p) & 1)
                coeff *= term.ops[p].creation ? cplx{0.0, -1.0}
                                              : cplx{0.0, 1.0};
        }
        for (size_t q = 0; q < k; ++q)
            idx[q] = 2 * term.ops[pos[q]].mode + ((mask >> pos[q]) & 1);
        // Insertion sort with a sign flip per adjacent swap
        // (M_i M_j = -M_j M_i), then drop equal adjacent pairs
        // (M_i M_i = I; adjacent equals need no swap, so no sign).
        double sign = term_sign;
        for (size_t i = 1; i < k; ++i)
            for (size_t j = i; j > 0 && idx[j - 1] > idx[j]; --j) {
                std::swap(idx[j - 1], idx[j]);
                sign = -sign;
            }
        size_t len = 0;
        for (size_t i = 0; i < k;) {
            if (i + 1 < k && idx[i] == idx[i + 1]) {
                i += 2;
            } else {
                idx[len++] = idx[i++];
            }
        }
        coeff *= sign;
        addMonomial(coeff, {idx, len});
    }
    ++terms_consumed_;
}

void
StreamingMajoranaAccumulator::addMonomial(cplx coeff,
                                          std::span<const uint32_t> indices)
{
    if (2 * (poly_.size() + 1) > slots_.size())
        rehash(std::max<size_t>(64, 2 * slots_.size()));
    const uint32_t h = hashIndices(indices);
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
        Slot &slot = slots_[s];
        if (slot.term == kEmpty) {
            slot = {static_cast<uint32_t>(poly_.size()), h};
            poly_.add(coeff, indices);
            return;
        }
        if (slot.hash == h &&
            std::ranges::equal(poly_[slot.term].indices, indices)) {
            poly_.coeffs_[slot.term] += coeff;
            return;
        }
    }
}

void
StreamingMajoranaAccumulator::rehash(size_t capacity)
{
    // Term ids are 32-bit with kEmpty reserved; load <= 1/2 keeps them so.
    if (capacity > (size_t{1} << 32))
        throw std::length_error(
            "StreamingMajoranaAccumulator: too many distinct monomials");
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{kEmpty, 0});
    const size_t mask = capacity - 1;
    for (const Slot &slot : old) {
        if (slot.term == kEmpty)
            continue;
        size_t s = slot.hash & mask;
        while (slots_[s].term != kEmpty)
            s = (s + 1) & mask;
        slots_[s] = slot;
    }
}

MajoranaPolynomial
StreamingMajoranaAccumulator::finish(double tol)
{
    // Drop |coeff| < tol terms by compacting the flat arrays in place;
    // survivors keep first-seen order.
    MajoranaPolynomial &p = poly_;
    size_t kept = 0;
    for (size_t t = 0; t < p.size(); ++t) {
        if (std::abs(p.coeffs_[t]) < tol)
            continue;
        const size_t lo = p.offsets_[t], hi = p.offsets_[t + 1];
        const size_t at = p.offsets_[kept];
        if (at != lo)
            std::copy(p.indices_.begin() + lo, p.indices_.begin() + hi,
                      p.indices_.begin() + at);
        p.coeffs_[kept] = p.coeffs_[t];
        p.offsets_[++kept] = at + (hi - lo);
    }
    p.coeffs_.resize(kept);
    p.offsets_.resize(kept + 1);
    p.indices_.resize(p.offsets_[kept]);

    MajoranaPolynomial out = std::move(poly_);
    poly_ = MajoranaPolynomial();
    slots_ = {};
    terms_consumed_ = 0;
    return out;
}

} // namespace hatt
