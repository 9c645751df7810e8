#include "io/stream.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace hatt::io {

void
StreamingMajoranaAccumulator::ensureModes(uint32_t modes)
{
    if (modes > num_modes_)
        num_modes_ = modes;
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

    // Identical expansion to MajoranaPolynomial::fromFermion:
    //   a†_j = (M_2j - i M_2j+1)/2,  a_j = (M_2j + i M_2j+1)/2.
    const size_t combos = size_t{1} << k;
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
        auto [sign, canon] =
            MajoranaPolynomial::canonicalize(std::move(indices));
        coeff *= sign;
        auto it = index_.find(canon);
        if (it != index_.end()) {
            order_[it->second].coeff += coeff;
        } else {
            index_.emplace(canon, order_.size());
            order_.emplace_back(coeff, std::move(canon));
        }
    }
    ++terms_consumed_;
}

MajoranaPolynomial
StreamingMajoranaAccumulator::finish(double tol)
{
    MajoranaPolynomial poly(num_modes_);
    for (MajoranaTerm &t : order_)
        if (std::abs(t.coeff) >= tol)
            poly.add(t.coeff, std::move(t.indices));
    index_.clear();
    order_.clear();
    terms_consumed_ = 0;
    num_modes_ = 0;
    return poly;
}

} // namespace hatt::io
