#ifndef HATT_CHEM_TRANSFORM_HPP
#define HATT_CHEM_TRANSFORM_HPP

/**
 * @file
 * Orbital-space reductions mirroring Qiskit Nature's transformers:
 * frozen-core folding (occupied core orbitals absorbed into an effective
 * one-body term and a constant) and an active-space window. Used by the
 * "frz" benchmark variants to reproduce the paper's mode counts.
 * Also the two ways from MO integrals to a Hamiltonian: secondQuantize
 * builds the fermionic terms, and addIntegralMonomials folds the same
 * operator's Majorana form straight into an accumulator.
 */

#include <cstddef>

#include "chem/scf.hpp"
#include "fermion/fermion_op.hpp"
#include "fermion/majorana.hpp"

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

/**
 * Fold the Majorana form of secondQuantize(mo, coeff_tol) into @p acc
 * (2 * numOrbitals modes) without building a fermionic term. With
 * x_P = M_2P, y_P = M_2P+1 on spin-orbital P = p + spin * numOrbitals,
 * the operator is, exactly,
 *
 *   H = c + (i/2) sum_{spin} sum_{pr} F_pr x_P y_R
 *         - 1/8 sum_{spins} sum'_{pqrs} (pr|qs) x_P y_R x_Q y_S,
 *   F_pr = h_pr + sum_q [(pr|qq) - (pq|qr)/2],
 *   c    = E_core + sum_p h_pp + sum_pq [(pp|qq)/2 - (pq|qp)/4],
 *
 * where sum' keeps the products of four distinct Majoranas (P, R share
 * a spin, as do Q, S); the products with a repeated one cancel or fold
 * into c. Each unique integral of an 8-fold class is visited once per
 * spin case. The monomial set matches
 * MajoranaPolynomial::fromFermion(secondQuantize(mo, coeff_tol)) and
 * the coefficients agree to rounding; the monomial order differs.
 *
 * Requires real-orbital symmetry: h_pq = h_qp and the 8-fold (pq|rs)
 * symmetry, as parseFcidump writes them for every accepted file.
 * @return the number of terms secondQuantize(mo, coeff_tol) holds.
 */
size_t addIntegralMonomials(const MoIntegrals &mo,
                            StreamingMajoranaAccumulator &acc,
                            double coeff_tol = 1e-10);

} // namespace hatt

#endif // HATT_CHEM_TRANSFORM_HPP
