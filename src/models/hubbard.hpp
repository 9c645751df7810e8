#ifndef HATT_MODELS_HUBBARD_HPP
#define HATT_MODELS_HUBBARD_HPP

/**
 * @file
 * Fermi-Hubbard model on an open rows x cols lattice (paper Sec. V-A.2):
 *
 *   H = -t sum_{<i,j>, sigma} (a†_{i,sigma} a_{j,sigma} + h.c.)
 *       + U sum_i n_{i,up} n_{i,down}
 *
 * Spin-orbital layout is interleaved per site (mode = 2*site + spin,
 * row-major sites), matching Qiskit Nature's FermiHubbardModel register
 * order that the paper's baselines are computed with. A rows x cols
 * lattice has 2*rows*cols modes ("2x2 = 8 modes" in Table II).
 */

#include <functional>

#include "fermion/fermion_op.hpp"

namespace hatt {

/** Parameters of the Fermi-Hubbard benchmark instance. */
struct HubbardParams
{
    uint32_t rows = 2;
    uint32_t cols = 2;
    double t = 1.0;
    double u = 4.0;
    bool periodic = false;
};

/** Number of spin-orbital modes of the lattice (2 * rows * cols). */
uint32_t hubbardNumModes(const HubbardParams &params);

/**
 * Emit the Hamiltonian's terms one at a time through @p sink, in the
 * exact order hubbardModel() adds them. Lattices far beyond 10^5 terms
 * stream without ever materializing the term list (see
 * StreamingMajoranaAccumulator in fermion/majorana.hpp).
 */
void streamHubbardTerms(const HubbardParams &params,
                        const std::function<void(FermionTerm &&)> &sink);

/** Build the Fermi-Hubbard Hamiltonian. */
FermionHamiltonian hubbardModel(const HubbardParams &params);

} // namespace hatt

#endif // HATT_MODELS_HUBBARD_HPP
