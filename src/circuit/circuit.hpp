#ifndef HATT_CIRCUIT_CIRCUIT_HPP
#define HATT_CIRCUIT_CIRCUIT_HPP

/**
 * @file
 * Minimal quantum-circuit IR: a flat gate list over a fixed qubit count.
 * The gate set is what the paper's compilation flow needs — {CNOT, U3}
 * basis metrics with H/S/Sdg/X/RZ as the concrete single-qubit gates
 * emitted by Pauli-evolution synthesis (U3 appears only as the *merged*
 * form used for counting, mirroring Qiskit's basis translation).
 */

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace hatt {

/** Gate kinds. U3 only appears after single-qubit merging. */
enum class GateKind : uint8_t { H, S, Sdg, X, RZ, CNOT, U3 };

/** One gate. q1 is only meaningful for CNOT (control=q0, target=q1). */
struct Gate
{
    GateKind kind = GateKind::H;
    int q0 = 0;
    int q1 = -1;
    double angle = 0.0; //!< RZ rotation angle (radians)

    bool isTwoQubit() const { return kind == GateKind::CNOT; }
};

/** Aggregate metrics in the {CNOT, U3} basis (paper Sec. V-B3). */
struct GateCounts
{
    uint64_t cnot = 0;
    uint64_t u3 = 0;    //!< single-qubit gates after run merging
    uint64_t depth = 0; //!< circuit depth counting merged 1q runs as one
};

/** A flat-list quantum circuit. */
class Circuit
{
  public:
    Circuit() = default;
    explicit Circuit(uint32_t num_qubits) : num_qubits_(num_qubits) {}

    uint32_t numQubits() const { return num_qubits_; }
    const std::vector<Gate> &gates() const { return gates_; }
    size_t size() const { return gates_.size(); }

    void h(int q) { push({GateKind::H, q, -1, 0.0}); }
    void s(int q) { push({GateKind::S, q, -1, 0.0}); }
    void sdg(int q) { push({GateKind::Sdg, q, -1, 0.0}); }
    void x(int q) { push({GateKind::X, q, -1, 0.0}); }
    void rz(int q, double angle) { push({GateKind::RZ, q, -1, angle}); }
    void cnot(int control, int target)
    {
        push({GateKind::CNOT, control, target, 0.0});
    }
    void push(const Gate &g)
    {
        assert(g.q0 >= 0 && g.q0 < static_cast<int>(num_qubits_));
        assert(!g.isTwoQubit() || (g.q1 >= 0 && g.q1 != g.q0 &&
                                   g.q1 < static_cast<int>(num_qubits_)));
        gates_.push_back(g);
    }
    void reserve(size_t num_gates) { gates_.reserve(num_gates); }

    /** For in-place rewrites (the optimizer); gates stay in range. */
    std::vector<Gate> &mutableGates() { return gates_; }

    /** Append all gates of @p other (same width required). */
    void append(const Circuit &other);

    /** Raw counts without merging. */
    uint64_t cnotCount() const;
    uint64_t singleQubitCount() const;

    /** Depth over the raw gate list (every gate counts one layer). */
    uint64_t rawDepth() const;

    /**
     * Metrics in the {CNOT, U3} basis: maximal runs of adjacent
     * single-qubit gates on one wire collapse into a single U3.
     */
    GateCounts basisCounts() const;

    std::string toString() const;

  private:
    uint32_t num_qubits_ = 0;
    std::vector<Gate> gates_;
};

} // namespace hatt

#endif // HATT_CIRCUIT_CIRCUIT_HPP
