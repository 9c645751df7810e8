#include "models/chains.hpp"

#include <algorithm>
#include <set>

namespace hatt {

MajoranaPolynomial
majoranaChain(uint32_t num_modes)
{
    MajoranaPolynomial poly(num_modes);
    for (uint32_t i = 0; i < 2 * num_modes; ++i)
        poly.add(cplx{1.0, 0.0}, {i});
    return poly;
}

MajoranaPolynomial
randomMajoranaPolynomial(uint32_t num_modes, uint32_t num_terms,
                         uint64_t seed)
{
    Rng rng(seed);
    StreamingMajoranaAccumulator acc(num_modes);
    const uint32_t m = 2 * num_modes;
    for (uint32_t t = 0; t < num_terms; ++t) {
        uint32_t degree = rng.chance(0.5) ? 2 : 4;
        degree = std::min(degree, m);
        std::set<uint32_t> picked;
        while (picked.size() < degree)
            picked.insert(static_cast<uint32_t>(rng.nextInt(m)));
        std::vector<uint32_t> indices(picked.begin(), picked.end());
        double coeff = rng.chance(0.5) ? 1.0 : -1.0;
        acc.addMonomial(cplx{coeff, 0.0}, indices);
    }
    return acc.finish();
}

} // namespace hatt
