#ifndef HATT_ROUTE_ROUTER_HPP
#define HATT_ROUTE_ROUTER_HPP

/**
 * @file
 * Architecture-aware transpilation: greedy interaction-based initial
 * layout plus shortest-path SWAP insertion, standing in for Tetris [21]
 * (see DESIGN.md substitutions). SWAPs decompose into 3 CNOTs; the
 * routed circuit only contains 2q gates on coupled physical pairs.
 */

#include <utility>

#include "circuit/circuit.hpp"
#include "route/coupling_map.hpp"

namespace hatt {

/** Result of routing a logical circuit onto a device. */
struct RoutedCircuit
{
    Circuit circuit;            //!< over physical qubits
    std::vector<int> initial;   //!< initial logical -> physical layout
    std::vector<int> final;     //!< final logical -> physical layout
    uint64_t swapsInserted = 0;
};

/** Greedy initial layout: logical qubits in decreasing two-qubit gate
    count in @p logical (stable, so ties keep index order) are placed
    BFS-outward from the device's highest-degree qubit.
    @throws std::invalid_argument if the device is too small or
    disconnected. */
std::vector<int> greedyLayout(const Circuit &logical,
                              const CouplingMap &device);

/**
 * The router's walk from @p layout (logical -> physical, left at the
 * final layout): 1q gates are remapped; for each CNOT whose endpoints
 * are not adjacent, the control is SWAP-walked along a shortest path
 * until adjacent. Hands each physical gate to @p emit in order (a SWAP
 * as three CNOTs) and returns the SWAP count. Deterministic. @p layout
 * must place every logical qubit on its own qubit of a connected
 * @p device, as greedyLayout() does.
 */
template <class Emit>
uint64_t
swapWalk(const Circuit &logical, const CouplingMap &device,
         std::vector<int> &layout, Emit &&emit)
{
    // physical -> logical (only for occupied qubits).
    std::vector<int> occupant(device.numQubits(), -1);
    for (size_t l = 0; l < layout.size(); ++l)
        occupant[layout[l]] = static_cast<int>(l);

    uint64_t swaps = 0;
    for (const Gate &g : logical.gates()) {
        if (!g.isTwoQubit()) {
            Gate phys = g;
            phys.q0 = layout[g.q0];
            emit(phys);
            continue;
        }
        while (!device.adjacent(layout[g.q0], layout[g.q1])) {
            const int pa = layout[g.q0];
            const int pb = device.hopUnchecked(pa, layout[g.q1]);
            emit(Gate{GateKind::CNOT, pa, pb, 0.0});
            emit(Gate{GateKind::CNOT, pb, pa, 0.0});
            emit(Gate{GateKind::CNOT, pa, pb, 0.0});
            std::swap(occupant[pa], occupant[pb]);
            if (occupant[pa] >= 0)
                layout[occupant[pa]] = pa;
            if (occupant[pb] >= 0)
                layout[occupant[pb]] = pb;
            ++swaps;
        }
        emit(Gate{GateKind::CNOT, layout[g.q0], layout[g.q1], 0.0});
    }
    return swaps;
}

/**
 * Route @p logical onto @p device: swapWalk() from greedyLayout(),
 * collected into a circuit. The routed-cost path
 * (device::evaluateHardwareCost) runs the same walk without building
 * the circuit.
 *
 * @throws std::invalid_argument if the device is too small or
 * disconnected.
 */
RoutedCircuit routeCircuit(const Circuit &logical,
                           const CouplingMap &device);

/** Check every 2q gate acts on a coupled pair (used by tests). */
bool respectsCoupling(const Circuit &c, const CouplingMap &device);

} // namespace hatt

#endif // HATT_ROUTE_ROUTER_HPP
