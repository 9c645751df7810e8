#include "circuit/optimize.hpp"

#include <cassert>
#include <cmath>
#include <vector>

namespace hatt {

namespace {

bool
inversePair(const Gate &a, const Gate &b)
{
    if (a.q0 != b.q0)
        return false;
    switch (a.kind) {
      case GateKind::H: return b.kind == GateKind::H;
      case GateKind::X: return b.kind == GateKind::X;
      case GateKind::S: return b.kind == GateKind::Sdg;
      case GateKind::Sdg: return b.kind == GateKind::S;
      default: return false;
    }
}

constexpr uint32_t kNone = UINT32_MAX;

/** Per-wire stacks of surviving gates threaded through the gate list:
    below[2i + k] is the gate under gate i on its wire q0 (k = 0) or q1
    (k = 1); top[w] heads wire w's stack. Reused across passes. */
struct WireStacks
{
    std::vector<uint32_t> top, below;
    std::vector<uint8_t> removed;
};

/** One forward pass, in place; returns number of gates removed. */
uint64_t
cancelPass(Circuit &c, WireStacks &st)
{
    std::vector<Gate> &gates = c.mutableGates();
    const size_t n = gates.size();
    assert(n < kNone);
    st.top.assign(c.numQubits(), kNone);
    st.below.resize(2 * n);
    st.removed.assign(n, 0);
    auto push = [&](size_t i, int w, int slot) {
        st.below[2 * i + slot] = st.top[w];
        st.top[w] = static_cast<uint32_t>(i);
    };
    auto pop = [&](int w) { // the top's link on w: slot 1 iff w is its q1
        st.top[w] = st.below[2 * st.top[w] + (gates[st.top[w]].q0 != w)];
    };

    uint64_t cancelled = 0;
    for (size_t i = 0; i < n; ++i) {
        Gate &g = gates[i];
        if (g.kind == GateKind::CNOT) {
            const uint32_t t = st.top[g.q0];
            if (t != kNone && t == st.top[g.q1]) {
                const Gate &prev = gates[t];
                if (prev.kind == GateKind::CNOT && prev.q0 == g.q0 &&
                    prev.q1 == g.q1) {
                    st.removed[t] = st.removed[i] = 1;
                    pop(g.q0);
                    pop(g.q1);
                    cancelled += 2;
                    continue;
                }
            }
            push(i, g.q0, 0);
            push(i, g.q1, 1);
        } else {
            const uint32_t t = st.top[g.q0];
            if (t != kNone) {
                Gate &prev = gates[t];
                if (!prev.isTwoQubit() && inversePair(prev, g)) {
                    st.removed[t] = st.removed[i] = 1;
                    pop(g.q0);
                    cancelled += 2;
                    continue;
                }
                if (!prev.isTwoQubit() && prev.kind == GateKind::RZ &&
                    g.kind == GateKind::RZ) {
                    prev.angle += g.angle;
                    st.removed[i] = 1;
                    ++cancelled; // merged, not strictly removed
                    if (std::abs(std::remainder(prev.angle,
                                                4.0 * M_PI)) < 1e-14) {
                        st.removed[t] = 1;
                        pop(g.q0);
                        ++cancelled;
                    }
                    continue;
                }
            }
            push(i, g.q0, 0);
        }
    }

    if (cancelled != 0) {
        size_t kept = 0;
        for (size_t i = 0; i < n; ++i)
            if (!st.removed[i])
                gates[kept++] = gates[i];
        gates.resize(kept);
    }
    return cancelled;
}

} // namespace

OptimizeStats
optimizeCircuit(Circuit &c, uint32_t max_passes)
{
    OptimizeStats stats;
    WireStacks stacks;
    for (uint32_t p = 0; p < max_passes; ++p) {
        size_t before = c.size();
        uint64_t cancelled = cancelPass(c, stacks);
        stats.removedGates += before - c.size();
        ++stats.passes;
        if (cancelled == 0)
            break;
    }
    return stats;
}

} // namespace hatt
