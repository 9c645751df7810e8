#include "mapping/mapping.hpp"

#include <cassert>

#include "tree/ternary_tree.hpp"

namespace hatt {

std::vector<PauliTerm>
FermionQubitMapping::annihilationOperator(uint32_t mode) const
{
    assert(2 * mode + 1 < majorana.size());
    PauliTerm even = majorana[2 * mode];
    PauliTerm odd = majorana[2 * mode + 1];
    even.coeff *= 0.5;
    odd.coeff *= cplx{0.0, 0.5};
    return {even, odd};
}

std::vector<PauliTerm>
FermionQubitMapping::creationOperator(uint32_t mode) const
{
    assert(2 * mode + 1 < majorana.size());
    PauliTerm even = majorana[2 * mode];
    PauliTerm odd = majorana[2 * mode + 1];
    even.coeff *= 0.5;
    odd.coeff *= cplx{0.0, -0.5};
    return {even, odd};
}

FermionQubitMapping
mappingFromTree(const TernaryTree &tree, std::string name,
                const std::vector<int> &leaf_of_majorana)
{
    const uint32_t n = tree.numModes();
    assert(leaf_of_majorana.empty() || leaf_of_majorana.size() == 2 * n);
    std::vector<PauliString> strings = tree.extractStrings();
    FermionQubitMapping map;
    map.numModes = n;
    map.numQubits = n;
    map.name = std::move(name);
    map.majorana.reserve(2 * n);
    for (uint32_t i = 0; i < 2 * n; ++i) {
        const int leaf = leaf_of_majorana.empty()
                             ? static_cast<int>(i)
                             : leaf_of_majorana[i];
        assert(leaf >= 0);
        map.majorana.emplace_back(cplx{1.0, 0.0}, strings[leaf]);
    }
    return map;
}

std::string
mappingKindName(MappingKind kind)
{
    switch (kind) {
      case MappingKind::JordanWigner: return "JW";
      case MappingKind::BravyiKitaev: return "BK";
      case MappingKind::BalancedTernaryTree: return "BTT";
      case MappingKind::Hatt: return "HATT";
      case MappingKind::HattUnoptimized: return "HATT-unopt";
    }
    return "?";
}

} // namespace hatt
