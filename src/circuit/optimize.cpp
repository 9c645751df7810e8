#include "circuit/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hatt {

namespace {

constexpr uint32_t kEmpty = UINT32_MAX; //!< link below a wire's bottom

bool
inversePair(GateKind a, GateKind b)
{
    switch (a) {
      case GateKind::H: return b == GateKind::H;
      case GateKind::X: return b == GateKind::X;
      case GateKind::S: return b == GateKind::Sdg;
      case GateKind::Sdg: return b == GateKind::S;
      default: return false;
    }
}

} // namespace

CancellationStacks::CancellationStacks(uint32_t num_qubits)
    : top_(num_qubits, Top{kEmpty, 0, GateKind::CNOT})
{
}

CancellationStacks::Top
CancellationStacks::topAt(uint32_t link) const
{
    if (link == kEmpty)
        return {kEmpty, 0, GateKind::CNOT};
    const Entry &e = entry(link >> 1);
    return {link, e.depth(), e.kind()};
}

inline uint32_t
CancellationStacks::append(uint32_t below0, uint32_t below1, uint32_t depth,
                           GateKind kind)
{
    if ((size_ & (kBlockSize - 1)) == 0) [[unlikely]] {
        // A depth (at most the entry count) must fit 29 bits; that also
        // keeps every link (id << 1 | slot) below kEmpty.
        if (size_ + kBlockSize > (1u << 29))
            throw std::length_error("CancellationStacks: too many gates");
        blocks_.push_back(
            std::make_unique_for_overwrite<Entry[]>(kBlockSize));
    }
    blocks_.back()[size_ & (kBlockSize - 1)] = {
        {below0, below1}, depth << 3 | static_cast<uint32_t>(kind)};
    return size_++;
}

bool
CancellationStacks::push(const Gate &g)
{
    if (g.kind == GateKind::CNOT) {
        Top &c = top_[g.q0], &t = top_[g.q1];
        // The same CNOT tops both wires, with g's control in its slot 0
        // (only a CNOT holds a slot 1).
        if ((c.link & 1) == 0 && t.link == c.link + 1) {
            Entry &prev = entry(c.link >> 1);
            prev.tag &= 7;
            c = topAt(prev.below[0]);
            t = topAt(prev.below[1]);
            --cnot_;
            return false;
        }
        const uint32_t depth = std::max(c.depth, t.depth) + 1;
        const uint32_t id = append(c.link, t.link, depth, g.kind);
        c = {id << 1, depth, g.kind};
        t = {id << 1 | 1, depth, g.kind};
        ++cnot_;
        return true;
    }

    Top &top = top_[g.q0];
    bool popped = inversePair(top.kind, g.kind);
    if (!popped && top.kind == GateKind::RZ && g.kind == GateKind::RZ) {
        double &angle = angles_[entry(top.link >> 1).below[1]];
        angle += g.angle;
        popped = std::abs(std::remainder(angle, 4.0 * M_PI)) < 1e-14;
        if (!popped)
            return false; // merged
    }
    if (popped) {
        Entry &prev = entry(top.link >> 1);
        prev.tag &= 7;
        top = topAt(prev.below[0]);
        if (top.kind == GateKind::CNOT) // prev had opened a U3 run
            --u3_;
        return false;
    }
    // A 1q gate opens a U3 run unless it lands on one.
    const bool opens = top.kind == GateKind::CNOT;
    uint32_t angle_index = 0;
    if (g.kind == GateKind::RZ) {
        angle_index = static_cast<uint32_t>(angles_.size());
        angles_.push_back(g.angle);
    }
    const uint32_t depth = top.depth + (opens ? 1 : 0);
    const uint32_t id = append(top.link, angle_index, depth, g.kind);
    top = {id << 1, depth, g.kind};
    if (opens)
        ++u3_;
    return true;
}

GateCounts
CancellationStacks::counts() const
{
    GateCounts counts;
    counts.cnot = cnot_;
    counts.u3 = u3_;
    for (const Top &t : top_)
        counts.depth = std::max<uint64_t>(counts.depth, t.depth);
    return counts;
}

uint64_t
optimizeCircuit(Circuit &c)
{
    std::vector<Gate> &gates = c.mutableGates();
    CancellationStacks stacks(c.numQubits());
    // Pushed gate k moves down to gates[k] (k <= i) ...
    uint32_t pushed = 0;
    for (size_t i = 0; i < gates.size(); ++i)
        if (stacks.push(gates[i]))
            gates[pushed++] = gates[i];
    // ... and the survivors among them down again, in circuit order.
    size_t kept = 0;
    for (uint32_t k = 0; k < pushed; ++k) {
        if (!stacks.survives(k))
            continue;
        gates[kept] = gates[k];
        if (gates[kept].kind == GateKind::RZ)
            gates[kept].angle = stacks.angle(k);
        ++kept;
    }
    const uint64_t removed = gates.size() - kept;
    gates.resize(kept);
    return removed;
}

} // namespace hatt
