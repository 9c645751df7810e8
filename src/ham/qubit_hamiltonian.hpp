#ifndef HATT_HAM_QUBIT_HAMILTONIAN_HPP
#define HATT_HAM_QUBIT_HAMILTONIAN_HPP

/**
 * @file
 * Applies a fermion-to-qubit mapping to a Majorana polynomial (or directly
 * to a fermionic Hamiltonian), producing the qubit Hamiltonian PauliSum
 * whose Pauli weight / circuit cost the paper evaluates.
 *
 * Compilation is the batched, deterministic parallel engine below: terms
 * fan out over the work pool in fixed-size chunks, each chunk accumulates
 * its mapped products into a private PauliSum, chunks merge in chunk index
 * order, and one hash-based compress merges duplicate strings at the end.
 * The chunk decomposition depends only on the term count — never on the
 * thread count — so the output is bit-identical for every HATT_THREADS
 * (including 1) and to the historical serial fold.
 */

#include "common/deadline.hpp"
#include "fermion/fermion_op.hpp"
#include "fermion/majorana.hpp"
#include "mapping/mapping.hpp"
#include "pauli/pauli_sum.hpp"

namespace hatt {

/**
 * Batched qubit-Hamiltonian builder over a fixed mapping.
 *
 * Feed Majorana monomials with addBatch() (mapped immediately, in feed
 * order across calls); finish() performs the final hash-based compress
 * and returns the sum. Term products are computed in-place
 * (multiplyRight accumulating the phase exponent), so no intermediate
 * PauliString allocations occur.
 *
 * CompilationService::compile (io/service.cpp) maps through addBatch() over
 * the streaming accumulator's deduplicated monomials; mapToQubits()
 * below is the one-call wrapper. The engine borrows @p map — it must
 * outlive the engine.
 */
class QubitMappingEngine
{
  public:
    explicit QubitMappingEngine(const FermionQubitMapping &map);

    /**
     * Bound the remaining work: every addBatch dispatch checkpoints
     * @p deadline on the calling thread (throwing DeadlineExceededError)
     * and chunk workers poll it cooperatively at chunk boundaries.
     * Results mapped so far stay valid; the engine refuses further work
     * until the deadline is replaced.
     */
    void setDeadline(const Deadline &deadline) { deadline_ = deadline; }

    /**
     * Map terms [first, first + count) of @p poly now, fanned out over
     * the work pool. Successive batches merge in call order, so the
     * result equals one batch over the concatenated terms.
     */
    void addBatch(const MajoranaPolynomial &poly, size_t first,
                  size_t count);
    /** Map every term of @p terms (a MajoranaPolynomial::terms()). */
    void
    addBatch(const MajoranaPolynomial &terms)
    {
        addBatch(terms, 0, terms.size());
    }

    /**
     * Merge duplicate strings (|coeff| < tol dropped) and return
     * the qubit Hamiltonian. The engine is left empty and reusable.
     */
    PauliSum finish(double tol = kCoeffTol);

  private:
    /** Parallel chunk grain (terms per work-pool chunk). */
    static constexpr size_t kStreamBatch = 1024;

    const FermionQubitMapping *map_;
    Deadline deadline_; //!< run budget (unbounded)
    PauliSum mapped_;   //!< chunk-order merged products
};

/**
 * Map a Majorana polynomial through @p map: every monomial becomes the
 * phase-tracked product of the mapped Majorana strings. The result is
 * compressed (duplicates merged, near-zero coefficients dropped).
 * Runs on the batched parallel engine; bit-identical for every thread
 * count and to the serial fold.
 */
PauliSum mapToQubits(const MajoranaPolynomial &poly,
                     const FermionQubitMapping &map);

/** Convenience overload: preprocesses @p hf first. */
PauliSum mapToQubits(const FermionHamiltonian &hf,
                     const FermionQubitMapping &map);

/** Metrics the paper reports per mapping, before circuit compilation. */
struct HamiltonianMetrics
{
    uint64_t pauliWeight = 0;
    size_t numTerms = 0;      //!< non-identity terms
    double maxImagCoeff = 0;  //!< Hermiticity indicator (should be ~0)
};

HamiltonianMetrics hamiltonianMetrics(const PauliSum &sum);

} // namespace hatt

#endif // HATT_HAM_QUBIT_HAMILTONIAN_HPP
