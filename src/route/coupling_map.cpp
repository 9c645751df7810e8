#include "route/coupling_map.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

namespace hatt {

CouplingMap::CouplingMap(uint32_t num_qubits,
                         std::vector<std::pair<int, int>> edges,
                         std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)),
      edges_(std::move(edges))
{
    adj_.assign(num_qubits_, {});
    for (auto [a, b] : edges_) {
        assert(a >= 0 && b >= 0 && a < static_cast<int>(num_qubits_) &&
               b < static_cast<int>(num_qubits_) && a != b);
        adj_[a].push_back(b);
        adj_[b].push_back(a);
    }
    buildTables();
}

void
CouplingMap::buildTables()
{
    const size_t n = num_qubits_;
    dist_.assign(n * n, kUnreachable);
    hop_.assign(n * n, -1);
    for (uint32_t s = 0; s < num_qubits_; ++s) {
        int *dist = &dist_[s * n];
        int *hop = &hop_[s * n];
        std::deque<int> queue{static_cast<int>(s)};
        dist[s] = 0;
        hop[s] = static_cast<int>(s);
        while (!queue.empty()) {
            int u = queue.front();
            queue.pop_front();
            for (int v : adj_[u]) {
                if (dist[v] > dist[u] + 1) {
                    dist[v] = dist[u] + 1;
                    // BFS dequeues in adj_[s] order of first hop, so this
                    // is s's earliest neighbour on a shortest path to v.
                    hop[v] = u == static_cast<int>(s) ? v : hop[u];
                    queue.push_back(v);
                }
            }
        }
    }
    connected_ = std::find(dist_.begin(), dist_.end(), kUnreachable) ==
                 dist_.end();
}

int
CouplingMap::distance(int a, int b) const
{
    auto device = [&] { return name_.empty() ? "unnamed" : name_; };
    if (!inRange(a) || !inRange(b))
        throw std::invalid_argument(
            "CouplingMap::distance: qubit pair (" + std::to_string(a) +
            ", " + std::to_string(b) + ") out of range for device '" +
            device() + "' with " + std::to_string(num_qubits_) + " qubits");
    const int d = dist_[index(a, b)];
    if (d == kUnreachable)
        throw std::invalid_argument(
            "CouplingMap::distance: qubits " + std::to_string(a) +
            " and " + std::to_string(b) +
            " are disconnected on device '" + device() + "'");
    return d;
}

int
CouplingMap::nextHop(int a, int b) const
{
    if (a == b && inRange(a))
        return a;
    distance(a, b); // bounds + connectivity checks
    return hopUnchecked(a, b);
}

CouplingMap
CouplingMap::ibmMontreal()
{
    // 27-qubit Falcon heavy-hex lattice (ibmq_montreal layout).
    std::vector<std::pair<int, int>> edges = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
        {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
        {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
        {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
        {22, 25}, {23, 24}, {24, 25}, {25, 26}};
    return CouplingMap(27, std::move(edges), "Montreal");
}

CouplingMap
CouplingMap::ibmManhattan()
{
    // 65-qubit Hummingbird heavy-hex: five rows of 10/11 qubits joined by
    // twelve bridge qubits (reconstruction of ibmq_manhattan).
    std::vector<std::pair<int, int>> edges;
    // Row start offsets and lengths.
    const int row_start[5] = {0, 13, 27, 41, 55};
    const int row_len[5] = {10, 11, 11, 11, 10};
    for (int r = 0; r < 5; ++r)
        for (int c = 0; c + 1 < row_len[r]; ++c)
            edges.push_back({row_start[r] + c, row_start[r] + c + 1});
    // Bridges between rows (three per gap, alternating column offsets).
    struct Bridge { int id, top, bottom; };
    const Bridge bridges[12] = {
        // gap 0: columns 0, 4, 8 (row0 col c <-> row1 col c)
        {10, 0 + 0, 13 + 0},
        {11, 0 + 4, 13 + 4},
        {12, 0 + 8, 13 + 8},
        // gap 1: columns 2, 6, 10
        {24, 13 + 2, 27 + 2},
        {25, 13 + 6, 27 + 6},
        {26, 13 + 10, 27 + 10},
        // gap 2: columns 0, 4, 8
        {38, 27 + 0, 41 + 0},
        {39, 27 + 4, 41 + 4},
        {40, 27 + 8, 41 + 8},
        // gap 3: columns 2, 6, 9 (row 4 has 10 columns)
        {52, 41 + 2, 55 + 2},
        {53, 41 + 6, 55 + 6},
        {54, 41 + 9, 55 + 9},
    };
    for (const auto &b : bridges) {
        edges.push_back({b.top, b.id});
        edges.push_back({b.id, b.bottom});
    }
    return CouplingMap(65, std::move(edges), "Manhattan");
}

CouplingMap
CouplingMap::sycamore()
{
    // 54-qubit diagonal grid: 6 rows x 9 columns; each qubit couples to
    // the two diagonally adjacent qubits in the next row.
    const int rows = 6, cols = 9;
    std::vector<std::pair<int, int>> edges;
    auto id = [&](int r, int c) { return r * cols + c; };
    for (int r = 0; r + 1 < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            edges.push_back({id(r, c), id(r + 1, c)});
            int c2 = (r % 2 == 0) ? c + 1 : c - 1;
            if (c2 >= 0 && c2 < cols)
                edges.push_back({id(r, c), id(r + 1, c2)});
        }
    }
    return CouplingMap(rows * cols, std::move(edges), "Sycamore");
}

CouplingMap
CouplingMap::line(uint32_t n)
{
    std::vector<std::pair<int, int>> edges;
    for (uint32_t i = 0; i + 1 < n; ++i)
        edges.push_back({static_cast<int>(i), static_cast<int>(i + 1)});
    return CouplingMap(n, std::move(edges),
                       "line:" + std::to_string(n));
}

CouplingMap
CouplingMap::grid(uint32_t w, uint32_t h)
{
    std::vector<std::pair<int, int>> edges;
    auto id = [&](uint32_t r, uint32_t c) {
        return static_cast<int>(r * w + c);
    };
    for (uint32_t r = 0; r < h; ++r) {
        for (uint32_t c = 0; c < w; ++c) {
            if (c + 1 < w)
                edges.push_back({id(r, c), id(r, c + 1)});
            if (r + 1 < h)
                edges.push_back({id(r, c), id(r + 1, c)});
        }
    }
    return CouplingMap(w * h, std::move(edges),
                       "grid:" + std::to_string(w) + "x" +
                           std::to_string(h));
}

CouplingMap
CouplingMap::allToAll(uint32_t n)
{
    std::vector<std::pair<int, int>> edges;
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t j = i + 1; j < n; ++j)
            edges.push_back({static_cast<int>(i), static_cast<int>(j)});
    return CouplingMap(n, std::move(edges),
                       "all-to-all:" + std::to_string(n));
}

} // namespace hatt
