#include "route/router.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hatt {

namespace {

/** Place logical qubits in decreasing @p degree BFS-outward from the
    device's highest-degree qubit. Requires degree.size() <= device
    qubits. */
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

} // namespace

std::vector<int>
greedyLayout(const Circuit &logical, const CouplingMap &device)
{
    if (logical.numQubits() > device.numQubits())
        throw std::invalid_argument("router: device too small");
    if (!device.connected())
        throw std::invalid_argument("router: disconnected device");
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
    RoutedCircuit out;
    out.initial = greedyLayout(logical, device);
    out.final = out.initial;
    out.circuit = Circuit(device.numQubits());
    out.swapsInserted = swapWalk(logical, device, out.final,
                                 [&](const Gate &g) { out.circuit.push(g); });
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
