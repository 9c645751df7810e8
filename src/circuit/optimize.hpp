#ifndef HATT_CIRCUIT_OPTIMIZE_HPP
#define HATT_CIRCUIT_OPTIMIZE_HPP

/**
 * @file
 * Peephole circuit optimization standing in for the "Qiskit L3" cleanup
 * the paper applies after synthesis: adjacent-inverse cancellation
 * (H·H, S·Sdg, X·X, CNOT·CNOT) and RZ merging. The rules live in one
 * place, CancellationStacks; optimizeCircuit feeds a circuit through
 * them and keeps the survivors, the routed-cost path (device/cost)
 * feeds routed gates through them and keeps only counts.
 * Unitary-preserving by construction; property-tested against the
 * state-vector simulator.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"

namespace hatt {

/**
 * Per-wire stacks of surviving gates. Gates are pushed in circuit
 * order. A gate that is the inverse of the top of its wire (H·H, X·X,
 * S·Sdg, Sdg·S, or a CNOT on the same control and target that tops
 * both of its wires) pops that top instead of being pushed. An RZ on
 * an RZ merges into it, and the merged RZ is popped when its angle is
 * 0 mod 4π.
 *
 * One pass is a fixpoint: a gate that survives has, on each wire, the
 * gate that was on top when it was pushed as its predecessor, and it
 * was compared with exactly that gate. For the same reason the
 * survivors' {CNOT, U3} basis counts (Circuit::basisCounts) are fixed
 * at push time and kept current as gates come and go, so a caller
 * that only needs counts never builds the optimized circuit.
 */
class CancellationStacks
{
  public:
    explicit CancellationStacks(uint32_t num_qubits);

    /** Feed the next gate; true when it was pushed (a later gate may
        still pop it). Pushed gates are numbered 0, 1, ... */
    bool push(const Gate &g);

    /** Circuit::basisCounts() of the surviving gates. */
    GateCounts counts() const;

    /** Whether pushed gate @p k survives so far. */
    bool survives(uint32_t k) const { return entry(k).depth() != 0; }

    /** The merged angle of pushed RZ gate @p k. */
    double angle(uint32_t k) const { return angles_[entry(k).below[1]]; }

  private:
    /** A pushed gate, 12 bytes. below[s] links the entry under it on
        the wire it holds in slot s (slot 0: q0, slot 1: a CNOT's q1).
        A 1q gate holds one wire, so an RZ keeps its angle's index into
        angles_ in below[1]. */
    struct Entry
    {
        uint32_t below[2];
        uint32_t tag; //!< depth << 3 | kind; depth 0 once popped

        uint32_t depth() const { return tag >> 3; }
        GateKind kind() const { return static_cast<GateKind>(tag & 7); }
    };

    /** A wire's top entry, with the fields a push reads copied out of
        it. An empty wire reads as a CNOT of depth 0: no U3 run open. */
    struct Top
    {
        uint32_t link; //!< entry << 1 | slot
        uint32_t depth;
        GateKind kind;
    };

    // Entries live in fixed blocks, so growing the store never copies.
    static constexpr uint32_t kBlockBits = 12;
    static constexpr uint32_t kBlockSize = 1u << kBlockBits;

    Entry &entry(uint32_t k)
    {
        return blocks_[k >> kBlockBits][k & (kBlockSize - 1)];
    }
    const Entry &entry(uint32_t k) const
    {
        return blocks_[k >> kBlockBits][k & (kBlockSize - 1)];
    }
    Top topAt(uint32_t link) const;
    uint32_t append(uint32_t below0, uint32_t below1, uint32_t depth,
                    GateKind kind);

    std::vector<Top> top_;
    std::vector<std::unique_ptr<Entry[]>> blocks_;
    std::vector<double> angles_;
    uint32_t size_ = 0;
    uint64_t cnot_ = 0;
    uint64_t u3_ = 0;
};

/** Optimize @p c in place with one pass of CancellationStacks (a
    fixpoint); returns the number of gates removed. */
uint64_t optimizeCircuit(Circuit &c);

} // namespace hatt

#endif // HATT_CIRCUIT_OPTIMIZE_HPP
