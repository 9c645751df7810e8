#include "mapping/balanced_tree.hpp"

#include <cassert>
#include <functional>

namespace hatt {

std::vector<int>
vacuumPairingAssignment(const TernaryTree &tree)
{
    std::vector<int> assignment(2 * tree.numModes(), -1);
    uint32_t next_mode = 0;

    // Post-order: the unpaired leaf of each subtree is its Z-descendant;
    // at each internal node pair descZ(X-subtree) with descZ(Y-subtree).
    std::function<int(int)> process = [&](int id) -> int {
        const TreeNode &nd = tree.node(id);
        if (nd.isLeaf())
            return id;
        int ux = process(nd.child[BranchX]);
        int uy = process(nd.child[BranchY]);
        int uz = process(nd.child[BranchZ]);
        assert(next_mode < tree.numModes());
        // X side becomes the even Majorana so the pair reads (X, Y).
        assignment[2 * next_mode] = tree.node(ux).leafIndex;
        assignment[2 * next_mode + 1] = tree.node(uy).leafIndex;
        ++next_mode;
        return uz;
    };
    process(tree.root());
    assert(next_mode == tree.numModes());
    return assignment;
}

FermionQubitMapping
balancedTernaryTreeMapping(uint32_t num_modes, BttAssignment policy)
{
    TernaryTree tree = TernaryTree::balanced(num_modes);
    if (policy == BttAssignment::Natural)
        return mappingFromTree(tree, "BTT");
    return mappingFromTree(tree, "BTT", vacuumPairingAssignment(tree));
}

} // namespace hatt
