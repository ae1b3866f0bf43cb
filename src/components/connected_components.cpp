#include "src/components/connected_components.hpp"

#include <algorithm>
#include <numeric>

namespace rinkit {

namespace {

/// Union-find with path halving and union by size.
class UnionFind {
public:
    explicit UnionFind(count n) : parent_(n), size_(n, 1) {
        std::iota(parent_.begin(), parent_.end(), 0u);
    }

    index find(index x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]]; // path halving
            x = parent_[x];
        }
        return x;
    }

    void unite(index a, index b) {
        a = find(a);
        b = find(b);
        if (a == b) return;
        if (size_[a] < size_[b]) std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
    }

private:
    std::vector<index> parent_;
    std::vector<count> size_;
};

} // namespace

void ConnectedComponents::run() {
    UnionFind uf(g_.numberOfNodes());
    g_.forEdges([&](node u, node v) { uf.unite(u, v); });
    comp_.resize(g_.numberOfNodes());
    for (node u = 0; u < g_.numberOfNodes(); ++u) comp_[u] = uf.find(u);
    compactLabels();
    hasRun_ = true;
}

void ConnectedComponents::compactLabels() {
    const count n = comp_.size();
    std::vector<index> remap(n, none);
    index next = 0;
    for (node u = 0; u < n; ++u) {
        const index root = comp_[u];
        if (remap[root] == none) remap[root] = next++;
        comp_[u] = remap[root];
    }
    numComponents_ = next;
}

std::vector<count> ConnectedComponents::componentSizes() const {
    requireRun();
    std::vector<count> sizes(numComponents_, 0);
    for (index c : comp_) ++sizes[c];
    return sizes;
}

std::vector<node> ConnectedComponents::largestComponent() const {
    requireRun();
    const auto sizes = componentSizes();
    if (sizes.empty()) return {};
    const index target = static_cast<index>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    std::vector<node> nodes;
    nodes.reserve(sizes[target]);
    for (node u = 0; u < comp_.size(); ++u) {
        if (comp_[u] == target) nodes.push_back(u);
    }
    return nodes;
}

} // namespace rinkit
