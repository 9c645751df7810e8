#include "circuit/circuit.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hatt {

void
Circuit::append(const Circuit &other)
{
    if (other.num_qubits_ != num_qubits_)
        throw std::invalid_argument("Circuit::append: width mismatch");
    gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
}

uint64_t
Circuit::cnotCount() const
{
    uint64_t c = 0;
    for (const auto &g : gates_)
        if (g.kind == GateKind::CNOT)
            ++c;
    return c;
}

uint64_t
Circuit::singleQubitCount() const
{
    return gates_.size() - cnotCount();
}

uint64_t
Circuit::rawDepth() const
{
    std::vector<uint64_t> front(num_qubits_, 0);
    uint64_t depth = 0;
    for (const auto &g : gates_) {
        uint64_t d = front[g.q0];
        if (g.isTwoQubit())
            d = std::max(d, front[g.q1]);
        ++d;
        front[g.q0] = d;
        if (g.isTwoQubit())
            front[g.q1] = d;
        depth = std::max(depth, d);
    }
    return depth;
}

GateCounts
Circuit::basisCounts() const
{
    GateCounts counts;
    // run_open[q]: the current maximal 1q run on wire q is still open
    // (no CNOT has touched the wire since the run began).
    std::vector<uint8_t> run_open(num_qubits_, 0);
    std::vector<uint64_t> front(num_qubits_, 0);

    for (const auto &g : gates_) {
        if (g.kind == GateKind::CNOT) {
            run_open[g.q0] = false;
            run_open[g.q1] = false;
            ++counts.cnot;
            uint64_t d = std::max(front[g.q0], front[g.q1]) + 1;
            front[g.q0] = d;
            front[g.q1] = d;
        } else {
            if (!run_open[g.q0]) {
                run_open[g.q0] = true;
                ++counts.u3;
                front[g.q0] += 1; // merged run occupies one layer
            }
        }
    }
    counts.depth = 0;
    for (uint64_t d : front)
        counts.depth = std::max(counts.depth, d);
    return counts;
}

std::string
Circuit::toString() const
{
    std::ostringstream ss;
    for (const auto &g : gates_) {
        switch (g.kind) {
          case GateKind::H: ss << "h q" << g.q0; break;
          case GateKind::S: ss << "s q" << g.q0; break;
          case GateKind::Sdg: ss << "sdg q" << g.q0; break;
          case GateKind::X: ss << "x q" << g.q0; break;
          case GateKind::RZ:
            ss << "rz(" << g.angle << ") q" << g.q0;
            break;
          case GateKind::CNOT:
            ss << "cx q" << g.q0 << ", q" << g.q1;
            break;
          case GateKind::U3: ss << "u3 q" << g.q0; break;
        }
        ss << '\n';
    }
    return ss.str();
}

} // namespace hatt
