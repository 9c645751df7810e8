#ifndef HATT_ROUTE_ROUTER_HPP
#define HATT_ROUTE_ROUTER_HPP

/**
 * @file
 * Architecture-aware transpilation: greedy interaction-based initial
 * layout plus shortest-path SWAP insertion, standing in for Tetris [21]
 * (see DESIGN.md substitutions). SWAPs decompose into 3 CNOTs; the
 * routed circuit only contains 2q gates on coupled physical pairs.
 */

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
    BFS-outward from the device's highest-degree qubit. */
std::vector<int> greedyLayout(const Circuit &logical,
                              const CouplingMap &device);

/**
 * Route @p logical onto @p device: 1q gates are remapped; for each CNOT
 * whose endpoints are not adjacent, the control is SWAP-walked along a
 * shortest path until adjacent. Deterministic.
 *
 * @throws std::invalid_argument if the device is too small.
 */
RoutedCircuit routeCircuit(const Circuit &logical,
                           const CouplingMap &device);

/** Check every 2q gate acts on a coupled pair (used by tests). */
bool respectsCoupling(const Circuit &c, const CouplingMap &device);

} // namespace hatt

#endif // HATT_ROUTE_ROUTER_HPP
