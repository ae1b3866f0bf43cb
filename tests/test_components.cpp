// Tests for BFS, Dijkstra, connected components, and diameter.
#include <gtest/gtest.h>

#include "src/components/bfs.hpp"
#include "src/components/connected_components.hpp"
#include "src/components/diameter.hpp"
#include "src/graph/generators.hpp"

namespace rinkit {
namespace {

Graph pathGraph(count n) {
    Graph g(n);
    for (node u = 0; u + 1 < n; ++u) g.addEdge(u, u + 1);
    return g;
}

TEST(Bfs, DistancesOnPath) {
    const auto g = pathGraph(5);
    Bfs bfs(g, 0);
    bfs.run();
    for (node u = 0; u < 5; ++u) EXPECT_DOUBLE_EQ(bfs.distance(u), u);
    EXPECT_EQ(bfs.reached(), 5u);
}

TEST(Bfs, UnreachableIsInfinite) {
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    Bfs bfs(g, 0);
    bfs.run();
    EXPECT_DOUBLE_EQ(bfs.distance(1), 1.0);
    EXPECT_EQ(bfs.distance(2), infdist);
    EXPECT_EQ(bfs.reached(), 2u);
}

TEST(Bfs, CountsShortestPaths) {
    // 4-cycle: two shortest paths from 0 to the opposite corner.
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    g.addEdge(3, 0);
    Bfs bfs(g, 0);
    bfs.run();
    EXPECT_DOUBLE_EQ(bfs.numberOfPaths()[2], 2.0);
    EXPECT_DOUBLE_EQ(bfs.numberOfPaths()[1], 1.0);
    EXPECT_DOUBLE_EQ(bfs.numberOfPaths()[3], 1.0);
}

TEST(Bfs, VisitOrderNonDecreasing) {
    const auto g = generators::erdosRenyi(100, 0.05, 21);
    Bfs bfs(g, 0);
    bfs.run();
    const auto& order = bfs.visitOrder();
    for (count i = 1; i < order.size(); ++i) {
        EXPECT_LE(bfs.distance(order[i - 1]), bfs.distance(order[i]));
    }
}

TEST(Bfs, ReusableAcrossSources) {
    const auto g = pathGraph(6);
    Bfs bfs(g, 0);
    bfs.run();
    EXPECT_DOUBLE_EQ(bfs.distance(5), 5.0);
    bfs.setSource(5);
    bfs.run();
    EXPECT_DOUBLE_EQ(bfs.distance(0), 5.0);
    EXPECT_DOUBLE_EQ(bfs.distance(5), 0.0);
}

TEST(Bfs, InvalidSourceThrows) {
    const auto g = pathGraph(3);
    EXPECT_THROW(Bfs(g, 7), std::out_of_range);
    Bfs bfs(g, 0);
    EXPECT_THROW(bfs.setSource(9), std::out_of_range);
}

TEST(Dijkstra, MatchesBfsOnUnweighted) {
    const auto g = generators::erdosRenyi(80, 0.08, 5);
    Bfs bfs(g, 3);
    bfs.run();
    Dijkstra dij(g, 3);
    dij.run();
    for (node u = 0; u < 80; ++u) EXPECT_DOUBLE_EQ(dij.distance(u), bfs.distance(u));
}

TEST(Dijkstra, WeightedShortestPath) {
    Graph g(4, true);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 3, 1.0);
    g.addEdge(0, 2, 0.5);
    g.addEdge(2, 3, 0.7);
    Dijkstra dij(g, 0);
    dij.run();
    EXPECT_DOUBLE_EQ(dij.distance(3), 1.2);
    EXPECT_EQ(dij.path(3), (std::vector<node>{0, 2, 3}));
}

TEST(Dijkstra, PathOfUnreachableIsEmpty) {
    Graph g(3);
    g.addEdge(0, 1);
    Dijkstra dij(g, 0);
    dij.run();
    EXPECT_TRUE(dij.path(2).empty());
}

TEST(Apsp, SymmetricAndMatchesBfs) {
    const auto g = generators::erdosRenyi(50, 0.1, 9);
    const auto d = apspUnweighted(g);
    ASSERT_EQ(d.size(), 50u);
    for (node u = 0; u < 50; ++u) {
        for (node v = 0; v < 50; ++v) EXPECT_DOUBLE_EQ(d[u][v], d[v][u]);
    }
    Bfs bfs(g, 17);
    bfs.run();
    for (node v = 0; v < 50; ++v) EXPECT_DOUBLE_EQ(d[17][v], bfs.distance(v));
}

TEST(ConnectedComponents, SingleComponent) {
    const auto g = generators::karateClub();
    ConnectedComponents cc(g);
    cc.run();
    EXPECT_EQ(cc.numberOfComponents(), 1u);
    EXPECT_EQ(cc.largestComponent().size(), 34u);
}

TEST(ConnectedComponents, MultipleComponents) {
    Graph g(7);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    // 5, 6 isolated
    ConnectedComponents cc(g);
    cc.run();
    EXPECT_EQ(cc.numberOfComponents(), 4u);
    EXPECT_EQ(cc.componentOf(0), cc.componentOf(2));
    EXPECT_NE(cc.componentOf(0), cc.componentOf(3));
    EXPECT_NE(cc.componentOf(5), cc.componentOf(6));
    const auto sizes = cc.componentSizes();
    count total = 0;
    for (count s : sizes) total += s;
    EXPECT_EQ(total, 7u);
    EXPECT_EQ(cc.largestComponent().size(), 3u);
}

TEST(ConnectedComponents, EmptyAndEdgeless) {
    Graph empty;
    ConnectedComponents cc0(empty);
    cc0.run();
    EXPECT_EQ(cc0.numberOfComponents(), 0u);

    Graph iso(5);
    ConnectedComponents cc1(iso);
    cc1.run();
    EXPECT_EQ(cc1.numberOfComponents(), 5u);
}

TEST(ConnectedComponents, LabelsAreCompact) {
    const auto g = generators::erdosRenyi(200, 0.005, 33);
    ConnectedComponents cc(g);
    cc.run();
    const auto& comp = cc.components();
    for (index c : comp) EXPECT_LT(c, cc.numberOfComponents());
}

TEST(ConnectedComponents, RequiresRun) {
    const auto g = pathGraph(3);
    ConnectedComponents cc(g);
    EXPECT_THROW(cc.numberOfComponents(), std::logic_error);
    EXPECT_THROW(cc.componentOf(0), std::logic_error);
}

TEST(Diameter, PathGraphExact) {
    EXPECT_EQ(diameterExact(pathGraph(10)), 9u);
    EXPECT_EQ(eccentricity(pathGraph(10), 0), 9u);
    EXPECT_EQ(eccentricity(pathGraph(10), 5), 5u);
}

TEST(Diameter, EstimateIsLowerBoundAndTightOnPath) {
    const auto g = pathGraph(50);
    EXPECT_EQ(diameterEstimate(g), 49u); // double sweep is exact on trees
    const auto er = generators::erdosRenyi(200, 0.03, 13);
    EXPECT_LE(diameterEstimate(er), diameterExact(er));
}

TEST(Diameter, DisconnectedUsesReachableOnly) {
    Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    EXPECT_EQ(diameterExact(g), 2u);
}

} // namespace
} // namespace rinkit
