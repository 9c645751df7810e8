#ifndef HATT_FERMION_MAJORANA_HPP
#define HATT_FERMION_MAJORANA_HPP

/**
 * @file
 * Majorana-operator polynomials: the preprocessed form of a fermionic
 * Hamiltonian used by all mapping algorithms (paper Sec. III-C "Setup").
 *
 * Each ladder operator is split as a†_j = (M_2j - i M_2j+1)/2 and
 * a_j = (M_2j + i M_2j+1)/2, products are expanded, and each monomial is
 * canonicalized using M_i M_j = -M_j M_i (i != j) and M_i^2 = I into a
 * strictly ascending index list with a sign-tracked coefficient. Like
 * monomials are combined and near-zero coefficients dropped.
 *
 * Storage is flat: one index array, an offsets array and a coefficient
 * array, so a term is a {coeff, span} view and no monomial owns a heap
 * block. StreamingMajoranaAccumulator is the one expansion kernel and
 * the one dedup table; fromFermion and every file loader go through it.
 */

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fermion/fermion_op.hpp"

namespace hatt {

/** Longest ladder product preprocessing expands (2^k Majorana monomials). */
inline constexpr size_t kMaxLadderOps = 30;

/**
 * One monomial of a MajoranaPolynomial, viewed in place: a coefficient
 * times a product of distinct Majorana operators. The span is valid
 * until the polynomial is modified or destroyed.
 */
struct MajoranaMonomial
{
    cplx coeff;
    std::span<const uint32_t> indices; //!< strictly ascending

    std::string toString() const;
};

/**
 * A Hamiltonian expressed over 2N Majorana operators of an N-mode system.
 * The polynomial is its own term range: iterate it, index it, or pass
 * terms() wherever a sequence of MajoranaMonomial is read.
 */
class MajoranaPolynomial
{
  public:
    /** Range-for iterator yielding MajoranaMonomial views by value. */
    class Iterator
    {
      public:
        Iterator(const MajoranaPolynomial *poly, size_t i)
            : poly_(poly), i_(i)
        {
        }
        MajoranaMonomial operator*() const { return (*poly_)[i_]; }
        Iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iterator &) const = default;

      private:
        const MajoranaPolynomial *poly_;
        size_t i_;
    };

    MajoranaPolynomial() = default;
    explicit MajoranaPolynomial(uint32_t num_modes) : num_modes_(num_modes) {}

    /**
     * Preprocess a fermionic Hamiltonian (the paper's `preprocess(HF)`)
     * through StreamingMajoranaAccumulator. The identity monomial
     * (constant energy shift) is kept as a term with empty indices.
     * @throws std::invalid_argument for a term with more than
     *         kMaxLadderOps ladder operators.
     */
    static MajoranaPolynomial fromFermion(const FermionHamiltonian &hf);

    uint32_t numModes() const { return num_modes_; }
    uint32_t numMajoranas() const { return 2 * num_modes_; }

    size_t size() const { return coeffs_.size(); }
    MajoranaMonomial
    operator[](size_t i) const
    {
        return {coeffs_[i], {indices_.data() + offsets_[i],
                             indices_.data() + offsets_[i + 1]}};
    }
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size()}; }
    const MajoranaPolynomial &terms() const { return *this; }

    /** Append an already-canonical monomial (asserts ascending indices).
        No merging: equal monomials stay separate terms. */
    void add(cplx coeff, std::span<const uint32_t> indices);
    void
    add(cplx coeff, std::initializer_list<uint32_t> indices)
    {
        add(coeff, std::span<const uint32_t>(indices.begin(), indices.size()));
    }

    /** Constant (identity-monomial) part. */
    cplx constantTerm() const;

    std::string toString() const;

  private:
    friend class StreamingMajoranaAccumulator;

    uint32_t num_modes_ = 0;
    std::vector<cplx> coeffs_;
    std::vector<size_t> offsets_{0}; //!< term i is indices_[off[i], off[i+1])
    std::vector<uint32_t> indices_;
};

/**
 * The preprocessing kernel: feed fermionic terms with add() (or
 * canonical monomials with addMonomial()), read the finished polynomial
 * with finish(). Every term's 2^k combinations are built in a stack
 * buffer, insertion-sorted with a sign flip per swap, stripped of equal
 * pairs, and folded into the flat polynomial through one open-addressing
 * table keyed by the index span. Monomials keep first-seen order and
 * duplicate coefficients sum in feed order.
 *
 * Memory is O(distinct monomials): the input term list is never held.
 * The number of modes grows with the largest mode seen unless fixed up
 * front via ensureModes().
 */
class StreamingMajoranaAccumulator
{
  public:
    explicit StreamingMajoranaAccumulator(uint32_t num_modes = 0)
        : poly_(num_modes)
    {
    }

    /**
     * Expand one fermionic term and merge its monomials in place.
     * @throws std::invalid_argument for a term with more than
     *         kMaxLadderOps ladder operators.
     */
    void add(const FermionTerm &term);

    /** Merge one already-canonical (strictly ascending) monomial. */
    void addMonomial(cplx coeff, std::span<const uint32_t> indices);

    /** Raise the mode count (no-op if already >= @p modes). */
    void ensureModes(uint32_t modes);

    uint32_t numModes() const { return poly_.numModes(); }

    /** Fermionic terms consumed so far. */
    size_t termsConsumed() const { return terms_consumed_; }

    /** Distinct (pre-tolerance) monomials held: the only state that
        grows, bounded by the Hamiltonian, not by the terms consumed. */
    size_t currentMonomials() const { return poly_.size(); }

    /**
     * Finish: drop |coeff| < tol monomials and return the polynomial.
     * The accumulator is left empty and reusable.
     */
    MajoranaPolynomial finish(double tol = kCoeffTol);

  private:
    /** Table slot: a term id of poly_ (kEmpty if free) and its hash. */
    struct Slot
    {
        uint32_t term;
        uint32_t hash;
    };
    static constexpr uint32_t kEmpty = UINT32_MAX;

    void rehash(size_t capacity);

    MajoranaPolynomial poly_;
    std::vector<Slot> slots_; //!< power-of-two size, load <= 1/2
    size_t terms_consumed_ = 0;
};

} // namespace hatt

#endif // HATT_FERMION_MAJORANA_HPP
