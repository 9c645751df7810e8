#include "route/router.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hatt {

std::vector<int>
degreeOrderedLayout(const std::vector<uint64_t> &degree,
                    const CouplingMap &device)
{
    const uint32_t nl = static_cast<uint32_t>(degree.size());
    const uint32_t np = device.numQubits();
    std::vector<int> logical_order(nl);
    std::iota(logical_order.begin(), logical_order.end(), 0);
    std::stable_sort(logical_order.begin(), logical_order.end(),
                     [&](int a, int b) { return degree[a] > degree[b]; });

    // Physical qubits ordered BFS-outward from the max-degree node.
    int center = 0;
    size_t best_deg = 0;
    for (uint32_t q = 0; q < np; ++q) {
        if (device.neighbors(static_cast<int>(q)).size() > best_deg) {
            best_deg = device.neighbors(static_cast<int>(q)).size();
            center = static_cast<int>(q);
        }
    }
    std::vector<int> physical_order(np);
    std::iota(physical_order.begin(), physical_order.end(), 0);
    std::stable_sort(physical_order.begin(), physical_order.end(),
                     [&](int a, int b) {
                         return device.distance(center, a) <
                                device.distance(center, b);
                     });

    std::vector<int> layout(nl, -1);
    for (uint32_t i = 0; i < nl; ++i)
        layout[logical_order[i]] = physical_order[i];
    return layout;
}

std::vector<int>
greedyLayout(const Circuit &logical, const CouplingMap &device)
{
    std::vector<uint64_t> degree(logical.numQubits(), 0);
    for (const auto &g : logical.gates()) {
        if (g.isTwoQubit()) {
            ++degree[g.q0];
            ++degree[g.q1];
        }
    }
    return degreeOrderedLayout(degree, device);
}

RoutedCircuit
routeCircuit(const Circuit &logical, const CouplingMap &device)
{
    if (logical.numQubits() > device.numQubits())
        throw std::invalid_argument("routeCircuit: device too small");
    if (!device.connected())
        throw std::invalid_argument("routeCircuit: disconnected device");

    RoutedCircuit out;
    out.initial = greedyLayout(logical, device);
    std::vector<int> layout = out.initial; // logical -> physical
    // physical -> logical (only for occupied qubits).
    std::vector<int> occupant(device.numQubits(), -1);
    for (size_t l = 0; l < layout.size(); ++l)
        occupant[layout[l]] = static_cast<int>(l);

    Circuit routed(device.numQubits());
    auto emit_swap = [&](int pa, int pb) {
        routed.cnot(pa, pb);
        routed.cnot(pb, pa);
        routed.cnot(pa, pb);
        int la = occupant[pa], lb = occupant[pb];
        occupant[pa] = lb;
        occupant[pb] = la;
        if (la >= 0)
            layout[la] = pb;
        if (lb >= 0)
            layout[lb] = pa;
        ++out.swapsInserted;
    };

    for (const auto &g : logical.gates()) {
        if (!g.isTwoQubit()) {
            Gate phys = g;
            phys.q0 = layout[g.q0];
            routed.push(phys);
            continue;
        }
        // Walk the control toward the target along a shortest path.
        while (!device.adjacent(layout[g.q0], layout[g.q1])) {
            int hop = device.nextHop(layout[g.q0], layout[g.q1]);
            emit_swap(layout[g.q0], hop);
        }
        routed.cnot(layout[g.q0], layout[g.q1]);
    }
    out.circuit = std::move(routed);
    out.final = layout;
    return out;
}

bool
respectsCoupling(const Circuit &c, const CouplingMap &device)
{
    for (const auto &g : c.gates())
        if (g.isTwoQubit() && !device.adjacent(g.q0, g.q1))
            return false;
    return true;
}

} // namespace hatt
