#ifndef HATT_IO_STREAM_HPP
#define HATT_IO_STREAM_HPP

/**
 * @file
 * Streaming Majorana preprocessing: consume fermionic terms one at a
 * time (from a file reader or a model generator callback) and fold their
 * Majorana expansion directly into a deduplicated monomial accumulator.
 *
 * Memory is O(distinct Majorana monomials) — the input fermion term list
 * is never materialized, so Hubbard-scale Hamiltonians (>= 10^5 hopping /
 * interaction terms) stream straight into the preprocessed form that
 * buildHattMapping consumes. Monomial order matches
 * MajoranaPolynomial::fromFermion exactly (first-seen order, identical
 * expansion), so downstream results are bit-identical to the batch path.
 */

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fermion/fermion_op.hpp"
#include "fermion/majorana.hpp"

namespace hatt::io {

/**
 * Incremental replacement for MajoranaPolynomial::fromFermion: feed
 * fermionic terms with add(), read the finished polynomial with
 * finish(). The number of modes grows automatically with the largest
 * mode seen unless fixed up front via ensureModes().
 */
class StreamingMajoranaAccumulator
{
  public:
    explicit StreamingMajoranaAccumulator(uint32_t num_modes = 0)
        : num_modes_(num_modes)
    {
    }

    /**
     * Expand one fermionic term and merge its monomials in place.
     * @throws std::invalid_argument for a term with more than
     *         kMaxLadderOps ladder operators.
     */
    void add(const FermionTerm &term);

    /** Raise the mode count (no-op if already >= @p modes). */
    void ensureModes(uint32_t modes);

    uint32_t numModes() const { return num_modes_; }

    /** Fermionic terms consumed so far. */
    size_t termsConsumed() const { return terms_consumed_; }

    /**
     * Number of distinct (pre-tolerance) monomials held — the only
     * state that grows, and the streaming memory witness: bounded by
     * the distinct-monomial count of the Hamiltonian, not by the
     * number of input terms consumed.
     */
    size_t currentMonomials() const { return order_.size(); }

    /**
     * Finish: drop |coeff| < tol monomials and return the polynomial.
     * The accumulator is left empty and reusable.
     */
    MajoranaPolynomial finish(double tol = kCoeffTol);

  private:
    uint32_t num_modes_ = 0;
    size_t terms_consumed_ = 0;

    /** Monomial -> slot in order_; coefficients accumulate in place. */
    std::unordered_map<std::vector<uint32_t>, size_t, IndexVecHash> index_;
    std::vector<MajoranaTerm> order_; //!< first-seen order, as compress()
};

/** The former multi-worker preprocessor's name, kept as an alias
    because e2ebench/probe.cpp still spells it. */
using ShardedMajoranaPreprocessor = StreamingMajoranaAccumulator;

/** Emits generated fermionic terms one at a time. */
using FermionTermSink = std::function<void(FermionTerm &&)>;

} // namespace hatt::io

#endif // HATT_IO_STREAM_HPP
