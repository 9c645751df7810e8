#include "fermion/majorana.hpp"

#include <cassert>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace hatt {

std::string
MajoranaTerm::toString() const
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

std::pair<double, std::vector<uint32_t>>
MajoranaPolynomial::canonicalize(std::vector<uint32_t> idx)
{
    double sign = 1.0;
    // Insertion sort with anticommutation sign per adjacent swap.
    for (size_t i = 1; i < idx.size(); ++i) {
        size_t j = i;
        while (j > 0 && idx[j - 1] > idx[j]) {
            std::swap(idx[j - 1], idx[j]);
            sign = -sign;
            --j;
        }
    }
    // Cancel equal adjacent pairs: M_i M_i = I. Since equal entries are now
    // adjacent, remove them two at a time (no extra sign: adjacent equals
    // need no swap).
    std::vector<uint32_t> out;
    out.reserve(idx.size());
    size_t i = 0;
    while (i < idx.size()) {
        if (i + 1 < idx.size() && idx[i] == idx[i + 1]) {
            i += 2;
        } else {
            out.push_back(idx[i]);
            ++i;
        }
    }
    return {sign, out};
}

MajoranaPolynomial
MajoranaPolynomial::fromFermion(const FermionHamiltonian &hf)
{
    MajoranaPolynomial poly(hf.numModes());

    for (const auto &term : hf.terms()) {
        const size_t k = term.ops.size();
        if (k > kMaxLadderOps)
            throw std::invalid_argument(
                "MajoranaPolynomial::fromFermion: term with > 30 ladder "
                "operators");
        const size_t combos = size_t{1} << k;
        // Expand the product over the two Majorana halves of each ladder op:
        //   a†_j = (M_2j - i M_2j+1)/2,  a_j = (M_2j + i M_2j+1)/2.
        for (size_t mask = 0; mask < combos; ++mask) {
            cplx coeff = term.coeff;
            std::vector<uint32_t> indices;
            indices.reserve(k);
            for (size_t p = 0; p < k; ++p) {
                const FermionOp &op = term.ops[p];
                bool odd_half = (mask >> p) & 1;
                coeff *= 0.5;
                if (odd_half) {
                    indices.push_back(2 * op.mode + 1);
                    coeff *= op.creation ? cplx{0.0, -1.0} : cplx{0.0, 1.0};
                } else {
                    indices.push_back(2 * op.mode);
                }
            }
            auto [sign, canon] = canonicalize(std::move(indices));
            poly.add(coeff * sign, std::move(canon));
        }
    }
    poly.compress();
    return poly;
}

void
MajoranaPolynomial::add(cplx coeff, std::vector<uint32_t> indices)
{
    for (size_t i = 0; i + 1 < indices.size(); ++i)
        assert(indices[i] < indices[i + 1]);
    for ([[maybe_unused]] uint32_t i : indices)
        assert(i < numMajoranas());
    terms_.push_back(MajoranaTerm{coeff, std::move(indices)});
}

void
MajoranaPolynomial::compress(double tol)
{
    std::unordered_map<std::vector<uint32_t>, size_t, IndexVecHash> index;
    std::vector<MajoranaTerm> merged;
    merged.reserve(terms_.size());
    for (auto &t : terms_) {
        auto it = index.find(t.indices);
        if (it == index.end()) {
            index.emplace(t.indices, merged.size());
            merged.push_back(std::move(t));
        } else {
            merged[it->second].coeff += t.coeff;
        }
    }
    std::vector<MajoranaTerm> pruned;
    pruned.reserve(merged.size());
    for (auto &t : merged)
        if (std::abs(t.coeff) >= tol)
            pruned.push_back(std::move(t));
    terms_ = std::move(pruned);
}

cplx
MajoranaPolynomial::constantTerm() const
{
    cplx c{};
    for (const auto &t : terms_)
        if (t.indices.empty())
            c += t.coeff;
    return c;
}

std::string
MajoranaPolynomial::toString() const
{
    std::ostringstream ss;
    for (size_t i = 0; i < terms_.size(); ++i) {
        if (i)
            ss << " + ";
        ss << terms_[i].toString();
    }
    return ss.str();
}

} // namespace hatt
