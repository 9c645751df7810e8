#ifndef HATT_CHEM_TRANSFORM_HPP
#define HATT_CHEM_TRANSFORM_HPP

/**
 * @file
 * Orbital-space reductions mirroring Qiskit Nature's transformers:
 * frozen-core folding (occupied core orbitals absorbed into an effective
 * one-body term and a constant) and an active-space window. Used by the
 * "frz" benchmark variants to reproduce the paper's mode counts.
 */

#include <functional>

#include "chem/scf.hpp"
#include "fermion/fermion_op.hpp"

namespace hatt {

/**
 * Freeze the first @p num_frozen (lowest-energy) orbitals and keep
 * @p num_active orbitals after them (0 = all remaining).
 *
 * The frozen doubly-occupied orbitals contribute
 *   E_frozen = 2 sum_c h_cc + sum_{c,d} (2(cc|dd) - (cd|dc))
 * to the constant and a mean-field correction
 *   h'_pq = h_pq + sum_c (2(pq|cc) - (pc|cq))
 * to the active one-body integrals.
 */
MoIntegrals freezeCore(const MoIntegrals &mo, uint32_t num_frozen,
                       uint32_t num_active = 0);

/**
 * Second-quantize spatial MO integrals into a fermionic Hamiltonian on
 * 2 * numOrbitals spin-orbital modes with block spin ordering (all alpha
 * modes first, then all beta), matching Qiskit Nature:
 *   H = E_core + sum h_pq a†_p a_q
 *             + 1/2 sum (pr|qs) a†_{p s1} a†_{q s2} a_{s s2} a_{r s1}.
 */
FermionHamiltonian secondQuantize(const MoIntegrals &mo,
                                  double coeff_tol = 1e-10);

/** secondQuantize()'s terms handed to @p emit one at a time, in the
    same order, without building the Hamiltonian (2 * numOrbitals
    modes). The term passed to @p emit is reused for the next one. */
void secondQuantizeInto(const MoIntegrals &mo,
                        const std::function<void(const FermionTerm &)> &emit,
                        double coeff_tol = 1e-10);

} // namespace hatt

#endif // HATT_CHEM_TRANSFORM_HPP
