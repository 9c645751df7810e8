#ifndef HATT_IO_FCIDUMP_HPP
#define HATT_IO_FCIDUMP_HPP

/**
 * @file
 * FCIDUMP (Knowles & Handy) integral-file reader: the standard quantum
 * chemistry interchange format emitted by PySCF/Molpro/NWChem. The
 * namelist header (&FCI NORB=..,NELEC=..,..&END or '/') is followed by
 * `value i j k l` lines (1-based orbital indices, chemist notation):
 *
 *   value i j k l   two-electron integral (ij|kl), 8-fold symmetry
 *   value i j 0 0   one-electron integral h_ij (symmetric)
 *   value 0 0 0 0   core (nuclear repulsion) energy
 *
 * The result is an MoIntegrals with every symmetric copy written
 * (h_ij = h_ji, all 8 permutations of each (ij|kl)), the precondition
 * of chem/transform's addIntegralMonomials, which loadProblem uses to
 * go straight to Majorana monomials. secondQuantize() builds the
 * fermionic Hamiltonian instead, with the same block-spin convention as
 * the built-in molecules.
 */

#include <istream>
#include <string>

#include "chem/scf.hpp"
#include "fermion/fermion_op.hpp"
#include "io/limits.hpp"

namespace hatt::io {

/** Parse FCIDUMP text into spatial MO integrals. @throws ParseError. */
MoIntegrals parseFcidump(std::istream &in);

/** As above, with hard input caps (2*NORB vs maxModes, integral lines
    vs maxTerms, per-line byte cap). @throws ParseError on a cap. */
MoIntegrals parseFcidump(std::istream &in, const ParseLimits &limits);

/** Load a file (throws ParseError, with the path, when unreadable). */
MoIntegrals loadFcidumpFile(const std::string &path);

/** Parse + secondQuantize() into a 2*NORB-mode fermionic Hamiltonian
    (e2ebench's replay; loadProblem never builds it). */
FermionHamiltonian loadFcidumpHamiltonian(const std::string &path);

/** Write @p mo in FCIDUMP format (unique integrals only). */
void writeFcidump(std::ostream &out, const MoIntegrals &mo,
                  double tol = 1e-12);

} // namespace hatt::io

#endif // HATT_IO_FCIDUMP_HPP
