#pragma once

#include <vector>

#include "src/graph/graph.hpp"

namespace rinkit {

/// Connected components of an undirected graph by sequential union-find,
/// O(m alpha(n)). Component ids are compacted to [0, numberOfComponents)
/// in order of each component's smallest node.
class ConnectedComponents {
public:
    explicit ConnectedComponents(const Graph& g) : g_(g) {}

    void run();

    bool hasRun() const { return hasRun_; }

    count numberOfComponents() const {
        requireRun();
        return numComponents_;
    }

    /// Component id of @p u.
    index componentOf(node u) const {
        requireRun();
        return comp_[u];
    }

    /// Component id per node.
    const std::vector<index>& components() const {
        requireRun();
        return comp_;
    }

    /// Size of each component, indexed by component id.
    std::vector<count> componentSizes() const;

    /// Nodes of the largest component.
    std::vector<node> largestComponent() const;

private:
    void compactLabels();
    void requireRun() const {
        if (!hasRun_) throw std::logic_error("ConnectedComponents: call run() first");
    }

    const Graph& g_;
    std::vector<index> comp_;
    count numComponents_ = 0;
    bool hasRun_ = false;
};

} // namespace rinkit
