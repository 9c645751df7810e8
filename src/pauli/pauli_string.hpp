#ifndef HATT_PAULI_PAULI_STRING_HPP
#define HATT_PAULI_PAULI_STRING_HPP

/**
 * @file
 * Pauli strings over N qubits in the packed symplectic (X/Z bit-mask)
 * representation, with phase-exact multiplication.
 *
 * A literal Pauli string is a tensor product of {I, X, Y, Z} with no global
 * phase. Internally each qubit stores a pair of bits (x, z):
 *   I=(0,0), X=(1,0), Z=(0,1), Y=(1,1),
 * and the literal operator equals i^{x&z} X^x Z^z per qubit (Y = iXZ).
 * Multiplication of two literal strings yields a third literal string times
 * a power of i, which multiplyPhase() computes exactly.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hatt {

class ComplexMatrix;

/**
 * Lightweight read-only view of a packed word array (x or z component).
 * Mirrors the slice of std::vector's interface the call sites use, so the
 * small-buffer storage below stays an implementation detail.
 */
class WordSpan
{
  public:
    WordSpan() = default;
    WordSpan(const uint64_t *data, size_t size) : data_(data), size_(size) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    uint64_t operator[](size_t i) const { return data_[i]; }
    const uint64_t *begin() const { return data_; }
    const uint64_t *end() const { return data_ + size_; }

  private:
    const uint64_t *data_ = nullptr;
    size_t size_ = 0;
};

/** Single-qubit Pauli operator label. */
enum class PauliOp : uint8_t { I = 0, X = 1, Y = 2, Z = 3 };

/** Render a PauliOp as its letter. */
char pauliOpChar(PauliOp op);

/** Product of two single-qubit Paulis: returns (result, i-phase exponent). */
std::pair<PauliOp, int> pauliOpProduct(PauliOp a, PauliOp b);

/**
 * A literal N-qubit Pauli string (no stored coefficient).
 *
 * Qubit 0 is the rightmost character in the string form, matching the
 * paper's convention (e.g. "XYIZ" has Z on qubit 0 and X on qubit 3).
 */
class PauliString
{
  public:
    PauliString() = default;

    /** All-identity string over @p num_qubits qubits. */
    explicit PauliString(uint32_t num_qubits);

    PauliString(const PauliString &other);
    PauliString(PauliString &&other) noexcept;
    PauliString &operator=(const PauliString &other);
    PauliString &operator=(PauliString &&other) noexcept;
    ~PauliString();

    /**
     * Parse the N-length string form, leftmost char = qubit N-1.
     * @throws std::invalid_argument on characters outside IXYZ.
     */
    static PauliString fromLabel(const std::string &label);

    /** Build from per-qubit ops, ops[q] acting on qubit q. */
    static PauliString fromOps(const std::vector<PauliOp> &ops);

    uint32_t numQubits() const { return num_qubits_; }

    PauliOp op(uint32_t qubit) const;
    void setOp(uint32_t qubit, PauliOp op);

    /** Number of non-identity single-qubit operators. */
    uint32_t weight() const;

    bool isIdentity() const;

    /** True iff the two strings commute (symplectic inner product = 0). */
    bool commutesWith(const PauliString &other) const;

    /**
     * In-place right-multiplication: *this <- (*this) * rhs.
     * @return the exponent k such that old * rhs = i^k * new (mod 4).
     */
    int multiplyRight(const PauliString &rhs);

    /** Out-of-place product: a * b = i^k * result. */
    static std::pair<PauliString, int> multiply(const PauliString &a,
                                                const PauliString &b);

    /**
     * Action on the all-zeros computational basis state.
     * P|0...0> = i^k |flips> where flips is the X bit mask; returns the
     * flip mask words and the i-exponent k. Diagonal ops contribute only
     * Z eigenvalues, all +1 on |0>, so k counts Y phases.
     */
    std::pair<std::vector<uint64_t>, int> applyToZeros() const;

    /** True iff the string is diagonal (contains only I and Z). */
    bool isDiagonal() const;

    /** N-length string form ("XYIZ"), leftmost char = highest qubit. */
    std::string toString() const;

    /**
     * Write the toString() form into out[0, numQubits()), with no
     * terminator. Renders a packed X/Z word pair (64 qubits) at a time,
     * eight letters per table lookup; artifact emit and toString() share
     * it.
     */
    void writeLabel(char *out) const;

    /** Compact form ("X3Y2Z0"); identity renders as "I". */
    std::string toCompactString() const;

    /** Dense 2^N x 2^N matrix; intended for N <= ~12 (tests only). */
    ComplexMatrix toMatrix() const;

    bool operator==(const PauliString &other) const;
    bool operator!=(const PauliString &other) const
    {
        return !(*this == other);
    }

    /** Strict weak order for use in sorted containers / term scheduling. */
    bool operator<(const PauliString &other) const;

    /** Hash over the packed words (for PauliSum compression). */
    size_t hashValue() const;

    WordSpan xWords() const { return {xData(), words_}; }
    WordSpan zWords() const { return {zData(), words_}; }

  private:
    /**
     * Small-buffer storage: strings of <= 64 qubits (one word per
     * component — the overwhelmingly common case downstream) keep both
     * components inline with zero heap traffic; wider strings use a
     * single allocation of 2*words (x at [0, words), z at [words, 2*words))
     * instead of the seed's two heap vectors per string.
     */
    static constexpr uint32_t kInlineWords = 1;

    bool inlineStorage() const { return words_ <= kInlineWords; }
    uint64_t *xData() { return inlineStorage() ? inline_ : heap_; }
    uint64_t *zData()
    {
        return inlineStorage() ? inline_ + kInlineWords : heap_ + words_;
    }
    const uint64_t *
    xData() const
    {
        return inlineStorage() ? inline_ : heap_;
    }
    const uint64_t *
    zData() const
    {
        return inlineStorage() ? inline_ + kInlineWords : heap_ + words_;
    }

    uint32_t num_qubits_ = 0;
    uint32_t words_ = 0; //!< words per component
    union {
        uint64_t inline_[2 * kInlineWords] = {0, 0};
        uint64_t *heap_; //!< active when words_ > kInlineWords
    };
};

/** Hash functor so PauliString can key unordered containers. */
struct PauliStringHash
{
    size_t operator()(const PauliString &s) const { return s.hashValue(); }
};

} // namespace hatt

#endif // HATT_PAULI_PAULI_STRING_HPP
