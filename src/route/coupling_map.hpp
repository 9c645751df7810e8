#ifndef HATT_ROUTE_COUPLING_MAP_HPP
#define HATT_ROUTE_COUPLING_MAP_HPP

/**
 * @file
 * Device connectivity graphs for architecture-aware compilation
 * (Table IV's Manhattan / Sycamore / Montreal targets). The IBM devices
 * are heavy-hex lattices reconstructed from their published layouts; the
 * Google Sycamore device is a diagonal grid. Exact edge lists of retired
 * devices are not bit-for-bit guaranteed, but qubit counts and topology
 * families match (see DESIGN.md substitutions).
 */

#include <cstdint>
#include <string>
#include <vector>

namespace hatt {

/** An undirected device connectivity graph. */
class CouplingMap
{
  public:
    CouplingMap() = default;
    CouplingMap(uint32_t num_qubits,
                std::vector<std::pair<int, int>> edges,
                std::string name);

    uint32_t numQubits() const { return num_qubits_; }
    const std::string &name() const { return name_; }
    const std::vector<std::pair<int, int>> &edges() const { return edges_; }
    const std::vector<int> &neighbors(int q) const { return adj_[q]; }

    /** Coupled pair; false for out-of-range ids. */
    bool adjacent(int a, int b) const
    {
        return inRange(a) && inRange(b) && dist_[index(a, b)] == 1;
    }

    /**
     * Hop distance between physical qubits (precomputed BFS).
     * @throws std::invalid_argument naming the device when a qubit id is
     * out of range or the pair is disconnected — callers never see the
     * internal "unreachable" sentinel or out-of-range UB.
     */
    int distance(int a, int b) const;

    /**
     * First hop on a shortest path a -> b (a itself if a == b).
     * @throws std::invalid_argument naming the device on out-of-range
     * ids or a disconnected pair, same contract as distance().
     */
    int nextHop(int a, int b) const;

    /** nextHop() unchecked: ids in range and connected (the router
        validates the device up front). */
    int hopUnchecked(int a, int b) const { return hop_[index(a, b)]; }

    /** Graph is connected (required by the router). */
    bool connected() const { return connected_; }

    /** IBM Montreal: 27-qubit Falcon heavy-hex. */
    static CouplingMap ibmMontreal();
    /** IBM Manhattan: 65-qubit Hummingbird heavy-hex. */
    static CouplingMap ibmManhattan();
    /** Google Sycamore: 54-qubit diagonal grid. */
    static CouplingMap sycamore();
    /** Simple line (for tests). */
    static CouplingMap line(uint32_t n);
    /** Rectangular nearest-neighbour grid, w columns by h rows. */
    static CouplingMap grid(uint32_t w, uint32_t h);
    /** Fully connected (trapped-ion style; routing becomes a no-op). */
    static CouplingMap allToAll(uint32_t n);

  private:
    static constexpr int kUnreachable = 1 << 28;

    void buildTables();
    bool inRange(int q) const
    {
        return q >= 0 && q < static_cast<int>(num_qubits_);
    }
    size_t index(int a, int b) const { return a * size_t{num_qubits_} + b; }

    uint32_t num_qubits_ = 0;
    std::string name_;
    std::vector<std::pair<int, int>> edges_;
    std::vector<std::vector<int>> adj_;
    // Flat num_qubits^2 tables, row = source: BFS distance (kUnreachable
    // when disconnected), first hop of a shortest path (-1 likewise).
    std::vector<int> dist_;
    std::vector<int> hop_;
    bool connected_ = true;
};

} // namespace hatt

#endif // HATT_ROUTE_COUPLING_MAP_HPP
