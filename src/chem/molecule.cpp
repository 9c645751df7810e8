#include "chem/molecule.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace hatt {

namespace {

constexpr double kAngstromToBohr = 1.8897259886;

Atom
atom(const std::string &el, int z, double x, double y, double zc)
{
    return {el, z,
            {x * kAngstromToBohr, y * kAngstromToBohr,
             zc * kAngstromToBohr}};
}

} // namespace

std::vector<Atom>
moleculeGeometry(const std::string &name)
{
    // Equilibrium geometries (Angstrom) from standard references
    // (PubChem / CCCBDB); converted to Bohr.
    if (name == "H2")
        return {atom("H", 1, 0, 0, 0), atom("H", 1, 0, 0, 0.735)};
    if (name == "LiH")
        return {atom("Li", 3, 0, 0, 0), atom("H", 1, 0, 0, 1.5949)};
    if (name == "NH")
        return {atom("N", 7, 0, 0, 0), atom("H", 1, 0, 0, 1.0362)};
    if (name == "BeH2")
        return {atom("Be", 4, 0, 0, 0), atom("H", 1, 0, 0, 1.3264),
                atom("H", 1, 0, 0, -1.3264)};
    if (name == "H2O")
        return {atom("O", 8, 0, 0, 0.1173),
                atom("H", 1, 0, 0.7572, -0.4692),
                atom("H", 1, 0, -0.7572, -0.4692)};
    if (name == "CH4") {
        const double d = 1.0890 / std::sqrt(3.0);
        return {atom("C", 6, 0, 0, 0), atom("H", 1, d, d, d),
                atom("H", 1, d, -d, -d), atom("H", 1, -d, d, -d),
                atom("H", 1, -d, -d, d)};
    }
    if (name == "O2")
        return {atom("O", 8, 0, 0, 0), atom("O", 8, 0, 0, 1.2075)};
    if (name == "NaF")
        return {atom("Na", 11, 0, 0, 0), atom("F", 9, 0, 0, 1.92595)};
    if (name == "CO2")
        return {atom("C", 6, 0, 0, 0), atom("O", 8, 0, 0, 1.1621),
                atom("O", 8, 0, 0, -1.1621)};
    throw std::invalid_argument("moleculeGeometry: unknown molecule " +
                                name);
}

uint32_t
moleculeElectronCount(const std::string &name)
{
    uint32_t n = 0;
    for (const Atom &a : moleculeGeometry(name))
        n += static_cast<uint32_t>(a.charge);
    return n;
}

std::vector<std::string>
availableMolecules()
{
    return {"H2", "LiH", "NH", "BeH2", "H2O", "CH4", "O2", "NaF", "CO2"};
}

MolecularProblem
buildMolecule(const MoleculeSpec &spec)
{
    std::vector<Atom> atoms = moleculeGeometry(spec.name);
    std::vector<BasisFunction> funcs;
    for (const Atom &a : atoms) {
        auto fs = basisForAtom(a, spec.basis);
        funcs.insert(funcs.end(), fs.begin(), fs.end());
    }

    AoIntegrals ints = computeAoIntegrals(atoms, funcs);
    const uint32_t electrons = moleculeElectronCount(spec.name);
    ScfResult scf = runRhf(ints, electrons);
    MoIntegrals mo = transformToMo(ints, scf, electrons);

    uint32_t frozen = 0;
    if (spec.freezeCore)
        for (const Atom &a : atoms)
            frozen += coreOrbitalCount(a.element);
    if (frozen > 0 || spec.activeOrbitals > 0)
        mo = freezeCore(mo, frozen, spec.activeOrbitals);

    MolecularProblem out;
    out.label = spec.name + " " + basisSetName(spec.basis) +
                (spec.freezeCore ? " frz" : "");
    out.hamiltonian = secondQuantize(mo);
    out.numModes = 2 * mo.numOrbitals;
    out.numElectrons = mo.numElectrons;
    out.nuclearRepulsion = ints.nuclearRepulsion;
    out.scfEnergy = scf.totalEnergy;
    out.scfConverged = scf.converged;
    out.integrals = std::move(mo);
    return out;
}

} // namespace hatt
