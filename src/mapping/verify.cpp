#include "mapping/verify.hpp"

#include <sstream>
#include <vector>

#include "mapping/balanced_tree.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt {

MappingCheck
verifyMapping(const FermionQubitMapping &map)
{
    const size_t m = map.majorana.size();
    if (m != 2 * map.numModes)
        return {false, "wrong number of Majorana operators"};

    for (size_t i = 0; i < m; ++i) {
        if (std::abs(std::abs(map.majorana[i].coeff) - 1.0) > kNumTol) {
            std::ostringstream ss;
            ss << "Majorana " << i << " has non-unit coefficient";
            return {false, ss.str()};
        }
        if (map.majorana[i].string.isIdentity()) {
            std::ostringstream ss;
            ss << "Majorana " << i << " is the identity";
            return {false, ss.str()};
        }
    }
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = i + 1; j < m; ++j) {
            if (map.majorana[i].string == map.majorana[j].string) {
                std::ostringstream ss;
                ss << "Majoranas " << i << " and " << j << " coincide";
                return {false, ss.str()};
            }
            if (map.majorana[i].string.commutesWith(
                    map.majorana[j].string)) {
                std::ostringstream ss;
                ss << "Majoranas " << i << " and " << j << " commute";
                return {false, ss.str()};
            }
        }
    }
    return {true, ""};
}

bool
preservesVacuum(const FermionQubitMapping &map)
{
    for (uint32_t j = 0; j < map.numModes; ++j) {
        const PauliTerm &even = map.majorana[2 * j];
        const PauliTerm &odd = map.majorana[2 * j + 1];

        auto [flips_e, ph_e] = even.string.applyToZeros();
        auto [flips_o, ph_o] = odd.string.applyToZeros();

        // a_j|0> = (c_e S_e + i c_o S_o)|0> / 2. If the two strings flip
        // different qubit sets the amplitudes live on different basis
        // states and cannot cancel.
        if (flips_e != flips_o)
            return false;
        cplx amp = even.coeff * phaseFromExponent(ph_e) +
                   cplx{0.0, 1.0} * odd.coeff * phaseFromExponent(ph_o);
        if (std::abs(amp) > kNumTol)
            return false;
    }
    return true;
}

MappingCheck
verifyMapperResult(const Mapper &mapper, const MappingRequest &request,
                   const MappingResult &result)
{
    const MapperCapabilities &caps = mapper.capabilities();
    const uint32_t modes = request.poly->numModes();

    MappingCheck check = verifyMapping(result.mapping);
    if (!check.valid)
        return check;
    if (result.mapping.numModes != modes) {
        std::ostringstream ss;
        ss << "mapper '" << mapper.name() << "' built " <<
            result.mapping.numModes << " modes for a " << modes
           << "-mode request";
        return {false, ss.str()};
    }
    if (result.mapping.numQubits == 0)
        return {false, "mapper '" + mapper.name() + "' built 0 qubits"};
    if (caps.vacuumPreserving && !preservesVacuum(result.mapping))
        return {false, "mapper '" + mapper.name() +
                           "' claims vacuum preservation but a_j|0> != 0"};
    if (caps.producesTree) {
        if (!result.tree)
            return {false, "mapper '" + mapper.name() +
                               "' claims producesTree but returned none"};
        FermionQubitMapping rederived =
            mappingFromTree(*result.tree, result.mapping.name);
        if (rederived.majorana.size() != result.mapping.majorana.size())
            return {false, "mapper '" + mapper.name() +
                               "' tree re-derives a different operator "
                               "count"};
        // The tree generates two legitimate assemblies: the natural
        // leaf order (HATT bakes its pairing into the tree itself) and
        // the vacuum-pairing permutation of the same strings (the
        // assembly the device-aware mappers ship). The whole mapping
        // must match one of them, string-for-string.
        const std::vector<int> pairing =
            vacuumPairingAssignment(*result.tree);
        // The pairing indexes the full 2N+1 extracted strings by leaf
        // index (the discarded leaf is not necessarily the last one),
        // so compare against the complete extraction, not the 2N-entry
        // natural assembly.
        const std::vector<PauliString> extracted =
            result.tree->extractStrings();
        bool natural_all = true;
        bool paired_all = true;
        size_t first_mismatch = 0;
        for (size_t i = 0; i < rederived.majorana.size(); ++i) {
            const PauliString &got = result.mapping.majorana[i].string;
            const bool natural = rederived.majorana[i].string == got;
            const bool paired =
                pairing[i] >= 0 &&
                static_cast<size_t>(pairing[i]) < extracted.size() &&
                extracted[static_cast<size_t>(pairing[i])] == got;
            if (!natural && !paired && natural_all && paired_all)
                first_mismatch = i;
            natural_all = natural_all && natural;
            paired_all = paired_all && paired;
        }
        if (!natural_all && !paired_all) {
            std::ostringstream ss;
            ss << "mapper '" << mapper.name() << "' tree re-derives "
               << "a different string for Majorana " << first_mismatch;
            return {false, ss.str()};
        }
    }
    return {true, ""};
}

uint64_t
operatorPauliWeight(const FermionQubitMapping &map)
{
    uint64_t w = 0;
    for (const auto &t : map.majorana)
        w += t.string.weight();
    return w;
}

double
averageOperatorWeight(const FermionQubitMapping &map)
{
    if (map.majorana.empty())
        return 0.0;
    return static_cast<double>(operatorPauliWeight(map)) /
           static_cast<double>(map.majorana.size());
}

} // namespace hatt
