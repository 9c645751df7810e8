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
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fermion/fermion_op.hpp"

namespace hatt {

/** Longest ladder product preprocessing expands (2^k Majorana monomials). */
inline constexpr size_t kMaxLadderOps = 30;

/** Hash for ascending Majorana index vectors (monomial dedup tables). */
struct IndexVecHash
{
    size_t
    operator()(const std::vector<uint32_t> &v) const
    {
        uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
        for (uint32_t x : v) {
            h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            h *= 0xff51afd7ed558ccdULL;
        }
        return static_cast<size_t>(h);
    }
};

/** A coefficient times a product of distinct Majorana operators. */
struct MajoranaTerm
{
    cplx coeff{1.0, 0.0};
    std::vector<uint32_t> indices; //!< strictly ascending Majorana indices

    MajoranaTerm() = default;
    MajoranaTerm(cplx c, std::vector<uint32_t> idx)
        : coeff(c), indices(std::move(idx))
    {
    }

    std::string toString() const;
};

/**
 * A Hamiltonian expressed over 2N Majorana operators of an N-mode system.
 */
class MajoranaPolynomial
{
  public:
    MajoranaPolynomial() = default;
    explicit MajoranaPolynomial(uint32_t num_modes) : num_modes_(num_modes) {}

    /**
     * Preprocess a fermionic Hamiltonian (the paper's `preprocess(HF)`).
     * Expands every ladder product into Majorana monomials, canonicalizes
     * and combines. The identity monomial (constant energy shift) is kept
     * as a term with empty indices.
     * @throws std::invalid_argument for a term with more than
     *         kMaxLadderOps ladder operators.
     */
    static MajoranaPolynomial fromFermion(const FermionHamiltonian &hf);

    uint32_t numModes() const { return num_modes_; }
    uint32_t numMajoranas() const { return 2 * num_modes_; }

    const std::vector<MajoranaTerm> &terms() const { return terms_; }
    size_t size() const { return terms_.size(); }

    /** Add an already-canonical monomial (asserts ascending indices). */
    void add(cplx coeff, std::vector<uint32_t> indices);

    /**
     * Canonicalize an arbitrary product of Majorana indices: bubble-sorts
     * with a sign flip per swap and cancels equal adjacent pairs.
     * @return (sign * i^0 coefficient multiplier, ascending index list)
     */
    static std::pair<double, std::vector<uint32_t>>
    canonicalize(std::vector<uint32_t> indices);

    /** Merge equal monomials; drop |coeff| < tol. Keeps first-seen order. */
    void compress(double tol = kCoeffTol);

    /** Constant (identity-monomial) part. */
    cplx constantTerm() const;

    std::string toString() const;

  private:
    uint32_t num_modes_ = 0;
    std::vector<MajoranaTerm> terms_;
};

} // namespace hatt

#endif // HATT_FERMION_MAJORANA_HPP
