#ifndef HATT_CHEM_MOLECULE_HPP
#define HATT_CHEM_MOLECULE_HPP

/**
 * @file
 * Benchmark molecule library: equilibrium geometries for the paper's
 * electronic-structure cases and the end-to-end pipeline
 *   geometry -> AO integrals -> RHF -> MO transform
 *   (-> frozen core / active space) -> second-quantized Hamiltonian.
 */

#include <optional>
#include <string>

#include "chem/transform.hpp"
#include "fermion/fermion_op.hpp"

namespace hatt {

/** A named benchmark case specification. */
struct MoleculeSpec
{
    std::string name;       //!< e.g. "H2", "LiH", "H2O"
    BasisSet basis = BasisSet::Sto3g;
    bool freezeCore = false;
    uint32_t activeOrbitals = 0; //!< after freezing; 0 = all remaining
};

/** Fully built molecular problem. */
struct MolecularProblem
{
    std::string label;          //!< e.g. "LiH sto3g frz"
    FermionHamiltonian hamiltonian;
    MoIntegrals integrals;      //!< what hamiltonian second-quantizes
    uint32_t numModes = 0;      //!< spin orbitals
    uint32_t numElectrons = 0;  //!< in the (possibly reduced) space
    double nuclearRepulsion = 0.0;
    double scfEnergy = 0.0;     //!< total RHF energy of the full problem
    bool scfConverged = false;
};

/** Geometry lookup (positions in Bohr). @throws for unknown names. */
std::vector<Atom> moleculeGeometry(const std::string &name);

/** Number of electrons of the neutral molecule. */
uint32_t moleculeElectronCount(const std::string &name);

/** Run the full pipeline for @p spec. */
MolecularProblem buildMolecule(const MoleculeSpec &spec);

/** Names of all built-in molecules. */
std::vector<std::string> availableMolecules();

} // namespace hatt

#endif // HATT_CHEM_MOLECULE_HPP
