// Tests for the layout algorithms (Maxent-Stress single-level and
// multilevel, FR, FA2), the coarsening hierarchy, and the Barnes-Hut
// octree they share, plus node2vec embeddings. `ctest -L layout` runs this
// suite; scripts/verify.sh --layout adds ASan/UBSan.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/components/connected_components.hpp"
#include "src/embedding/node2vec.hpp"
#include "src/graph/generators.hpp"
#include "src/layout/coarsening.hpp"
#include "src/layout/fruchterman_reingold.hpp"
#include "src/layout/layout.hpp"
#include "src/layout/maxent_stress.hpp"
#include "src/layout/multilevel_maxent_stress.hpp"
#include "src/layout/octree.hpp"
#include "src/md/synthetic.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/support/guide_table.hpp"
#include "src/support/random.hpp"

namespace rinkit {
namespace {

TEST(Octree, EmptyAndSinglePoint) {
    Octree empty(std::vector<Point3>{});
    EXPECT_EQ(empty.size(), 0u);
    int calls = 0;
    empty.forCells({0, 0, 0}, 0.5, [&](const Point3&, double, bool) { ++calls; });
    EXPECT_EQ(calls, 0);

    Octree one({{1, 2, 3}});
    EXPECT_EQ(one.size(), 1u);
    // Query away from the point sees exactly that point.
    double mass = 0.0;
    one.forCells({0, 0, 0}, 0.5, [&](const Point3& p, double m, bool) {
        mass += m;
        EXPECT_EQ(p, Point3(1, 2, 3));
    });
    EXPECT_DOUBLE_EQ(mass, 1.0);
}

TEST(Octree, MassConservedAtAnyTheta) {
    Rng rng(3);
    std::vector<Point3> pts(500);
    for (auto& p : pts) p = {rng.real01(), rng.real01(), rng.real01()};
    Octree tree(pts);
    for (double theta : {0.0, 0.5, 1.2}) {
        double mass = 0.0;
        tree.forCells({2.0, 2.0, 2.0}, theta, // query outside the cloud
                      [&](const Point3&, double m, bool) { mass += m; });
        EXPECT_DOUBLE_EQ(mass, 500.0) << "theta " << theta;
    }
}

TEST(Octree, SkipsQueryPointItself) {
    std::vector<Point3> pts{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
    Octree tree(pts, 1);
    double mass = 0.0;
    tree.forCells({0, 0, 0}, 0.0, [&](const Point3&, double m, bool) { mass += m; });
    EXPECT_DOUBLE_EQ(mass, 2.0); // the colocated point is excluded
}

TEST(Octree, ApproximationClosesOnExactForce) {
    // Compare approximate 1/d^2 repulsion against brute force.
    Rng rng(7);
    std::vector<Point3> pts(300);
    for (auto& p : pts) p = {rng.real01() * 10, rng.real01() * 10, rng.real01() * 10};
    Octree tree(pts);
    const Point3 q{5.0, 5.0, 5.0};

    Point3 exact{};
    for (const auto& p : pts) {
        const Point3 diff = q - p;
        const double d2 = std::max(diff.squaredNorm(), 1e-12);
        exact += diff / d2;
    }
    Point3 approx{};
    tree.forCells(q, 0.4, [&](const Point3& p, double m, bool) {
        const Point3 diff = q - p;
        const double d2 = std::max(diff.squaredNorm(), 1e-12);
        approx += diff * (m / d2);
    });
    EXPECT_LT((exact - approx).norm(), 0.05 * std::max(exact.norm(), 1.0));
}

TEST(Octree, DuplicatePointsDoNotRecurseForever) {
    std::vector<Point3> pts(50, Point3{1, 1, 1});
    pts.push_back({2, 2, 2});
    Octree tree(pts, 4);
    double mass = 0.0;
    tree.forCells({0, 0, 0}, 0.0, [&](const Point3&, double m, bool) { mass += m; });
    EXPECT_DOUBLE_EQ(mass, 51.0);
}

// Shared behavior of all layout algorithms.
enum class Algo { Maxent, FR, FA2 };

std::vector<Point3> runLayout(Algo a, const Graph& g) {
    switch (a) {
    case Algo::Maxent: {
        MaxentStress ms(g);
        ms.run();
        return ms.getCoordinates();
    }
    case Algo::FR: {
        FruchtermanReingold fr(g);
        fr.run();
        return fr.getCoordinates();
    }
    default: {
        ForceAtlas2 fa(g);
        fa.run();
        return fa.getCoordinates();
    }
    }
}

class LayoutP : public ::testing::TestWithParam<Algo> {};

TEST_P(LayoutP, ProducesFiniteCoordinatesForAllNodes) {
    const auto g = generators::erdosRenyi(120, 0.05, 3);
    const auto coords = runLayout(GetParam(), g);
    ASSERT_EQ(coords.size(), 120u);
    for (const auto& p : coords) {
        EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z));
    }
    // Not all nodes collapsed to one point.
    const auto box = layoutBounds(coords);
    EXPECT_GT(box.extent().norm(), 0.1);
}

TEST_P(LayoutP, HandlesTrivialGraphs) {
    Graph empty;
    Graph one(1);
    Graph two(2);
    two.addEdge(0, 1);
    for (const Graph* g : {&empty, &one, &two}) {
        const auto coords = runLayout(GetParam(), *g);
        EXPECT_EQ(coords.size(), g->numberOfNodes());
    }
}

TEST_P(LayoutP, RequiresRunBeforeCoordinates) {
    const auto g = generators::karateClub();
    MaxentStress ms(g);
    FruchtermanReingold fr(g);
    ForceAtlas2 fa(g);
    EXPECT_THROW(ms.getCoordinates(), std::logic_error);
    EXPECT_THROW(fr.getCoordinates(), std::logic_error);
    EXPECT_THROW(fa.getCoordinates(), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Algos, LayoutP,
                         ::testing::Values(Algo::Maxent, Algo::FR, Algo::FA2));

TEST(MaxentStress, ReducesStressOnGrid) {
    // A 3D grid has a perfect 3D embedding; Maxent-Stress must get close.
    const auto g = generators::grid3D(5, 5, 5);
    MaxentStress::Parameters params;
    params.iterations = 120;
    MaxentStress ms(g, 3, params);
    ms.run();
    const double stress = layoutStress(g, ms.getCoordinates());

    // Random layout stress for comparison.
    Rng rng(1);
    std::vector<Point3> random(g.numberOfNodes());
    for (auto& p : random) p = {rng.real(0, 5), rng.real(0, 5), rng.real(0, 5)};
    EXPECT_LT(stress, 0.5 * layoutStress(g, random));
}

TEST(MaxentStress, SeparatesCommunities) {
    // Two cliques + bridge: the two blocks should land apart; intra-block
    // distances smaller than inter-block ones on average.
    Graph g(12);
    for (node u = 0; u < 6; ++u) {
        for (node v = u + 1; v < 6; ++v) {
            g.addEdge(u, v);
            g.addEdge(u + 6, v + 6);
        }
    }
    g.addEdge(0, 6);
    MaxentStress ms(g);
    ms.run();
    const auto& c = ms.getCoordinates();
    double intra = 0.0, inter = 0.0;
    count nIntra = 0, nInter = 0;
    for (node u = 0; u < 12; ++u) {
        for (node v = u + 1; v < 12; ++v) {
            if ((u < 6) == (v < 6)) {
                intra += c[u].distance(c[v]);
                ++nIntra;
            } else {
                inter += c[u].distance(c[v]);
                ++nInter;
            }
        }
    }
    EXPECT_LT(intra / nIntra, inter / nInter);
}

TEST(MaxentStress, InitialCoordinatesRespected) {
    const auto g = generators::karateClub();
    std::vector<Point3> init(34);
    Rng rng(9);
    for (auto& p : init) p = {rng.real01(), rng.real01(), rng.real01()};

    MaxentStress::Parameters params;
    params.iterations = 0; // no iterations: output == input
    MaxentStress ms(g, 3, params);
    ms.setInitialCoordinates(init);
    ms.run();
    EXPECT_EQ(ms.getCoordinates(), init);

    MaxentStress bad(g);
    EXPECT_THROW(bad.setInitialCoordinates(std::vector<Point3>(5)), std::invalid_argument);
}

TEST(MaxentStress, DeterministicForSeed) {
    const auto g = generators::erdosRenyi(60, 0.1, 2);
    MaxentStress a(g), b(g);
    a.run();
    b.run();
    EXPECT_EQ(a.getCoordinates(), b.getCoordinates());
}

TEST(MaxentStress, Only3DSupported) {
    const auto g = generators::karateClub();
    EXPECT_THROW(MaxentStress(g, 2), std::invalid_argument);
}

TEST(MaxentStress, ReportsIterations) {
    const auto g = generators::karateClub();
    MaxentStress::Parameters params;
    params.iterations = 7;
    params.convergenceTol = 0.0; // never early-stop
    MaxentStress ms(g, 3, params);
    ms.run();
    EXPECT_EQ(ms.iterationsDone(), 7u);
}

TEST(MaxentStress, IsolatedNodeDriftsAwayFromBarycenter) {
    // 6-clique plus an isolated residue: the isolated node has no stress
    // term, so only the barycenter nudge acts on it — it must move, stay
    // finite, and end up farther from the cloud's barycenter than it began.
    Graph g(7);
    for (node u = 0; u < 6; ++u) {
        for (node v = u + 1; v < 6; ++v) g.addEdge(u, v);
    }
    std::vector<Point3> init(7);
    Rng rng(5);
    for (count i = 0; i < 6; ++i) init[i] = {rng.real01(), rng.real01(), rng.real01()};
    init[6] = {0.05, 0.0, 0.0}; // near the cloud's barycenter

    MaxentStress::Parameters params;
    params.iterations = 20;
    params.convergenceTol = 0.0;
    MaxentStress ms(g, 3, params);
    ms.setInitialCoordinates(init);
    ms.run();
    const auto& c = ms.getCoordinates();
    ASSERT_EQ(c.size(), 7u);
    EXPECT_TRUE(std::isfinite(c[6].x) && std::isfinite(c[6].y) && std::isfinite(c[6].z));
    EXPECT_NE(c[6], init[6]) << "isolated node must not be frozen in place";

    auto barycenterOfClique = [](const std::vector<Point3>& pts) {
        Point3 sum;
        for (count i = 0; i < 6; ++i) sum += pts[i];
        return sum / 6.0;
    };
    EXPECT_GT(c[6].distance(barycenterOfClique(c)),
              init[6].distance(barycenterOfClique(init)));
}

TEST(MaxentStress, ConvergenceToleranceIsScaleFree) {
    // Same topology with prescribed distances 1x vs 100x. The early-exit
    // threshold compares mean movement to the bounding-box diagonal, so
    // both solves converge in a similar number of iterations — an absolute
    // threshold would never trigger on the 100x layout (its movements are
    // ~100x larger too).
    const auto topo = generators::grid3D(4, 4, 4);
    Graph small(topo.numberOfNodes(), /*weighted=*/true);
    Graph large(topo.numberOfNodes(), /*weighted=*/true);
    topo.forWeightedEdges([&](node u, node v, edgeweight) {
        small.addEdge(u, v, 1.0);
        large.addEdge(u, v, 100.0);
    });

    MaxentStress::Parameters params;
    params.iterations = 500;
    params.convergenceTol = 1e-3;
    MaxentStress a(small, 3, params), b(large, 3, params);
    a.run();
    b.run();
    EXPECT_TRUE(a.converged());
    EXPECT_TRUE(b.converged());
    EXPECT_LT(a.iterationsDone(), 500u);
    EXPECT_LT(b.iterationsDone(), 500u);
    // Scale-free measure: exit happens at a comparable iteration.
    const double ia = static_cast<double>(a.iterationsDone());
    const double ib = static_cast<double>(b.iterationsDone());
    EXPECT_LT(std::max(ia, ib) / std::min(ia, ib), 2.0);
}

TEST(Octree, ExposesBoundsAndBarycenter) {
    std::vector<Point3> pts{{0, 0, 0}, {2, 0, 0}, {0, 4, 0}, {0, 0, 6}};
    Octree tree(pts);
    EXPECT_TRUE(tree.bounds().valid());
    EXPECT_EQ(tree.bounds().lo, Point3(0, 0, 0));
    EXPECT_EQ(tree.bounds().hi, Point3(2, 4, 6));
    const Point3 bc = tree.rootBarycenter();
    EXPECT_DOUBLE_EQ(bc.x, 0.5);
    EXPECT_DOUBLE_EQ(bc.y, 1.0);
    EXPECT_DOUBLE_EQ(bc.z, 1.5);

    Octree empty(std::vector<Point3>{});
    EXPECT_FALSE(empty.bounds().valid());
    EXPECT_EQ(empty.rootBarycenter(), Point3{});
}

TEST(Octree, ParallelRootPartitionPreservesMassAndBarycenter) {
    // 6000 points crosses the parallel-partition threshold; the tree must
    // still conserve mass at any theta and report the exact barycenter.
    Rng rng(17);
    std::vector<Point3> pts(6000);
    Point3 mean;
    for (auto& p : pts) {
        p = {rng.real01() * 10, rng.real01() * 10, rng.real01() * 10};
        mean += p;
    }
    mean /= 6000.0;
    Octree tree(pts);
    EXPECT_LT(tree.rootBarycenter().distance(mean), 1e-9);
    for (double theta : {0.0, 0.9}) {
        double mass = 0.0;
        tree.forCells({20.0, 20.0, 20.0}, theta,
                      [&](const Point3&, double m, bool) { mass += m; });
        EXPECT_DOUBLE_EQ(mass, 6000.0) << "theta " << theta;
    }
}

// -- coarsening hierarchy ---------------------------------------------------

/// ER graph over the first 300 of 310 nodes: a handful of components plus
/// isolated nodes, the shapes the invariants must survive.
Graph coarseningFixture(bool weighted) {
    const auto er = generators::erdosRenyi(300, 0.02, 3);
    Graph g(310, weighted);
    Rng rng(23);
    er.forWeightedEdges([&](node u, node v, edgeweight) {
        g.addEdge(u, v, weighted ? rng.real(1.0, 5.0) : 1.0);
    });
    return g;
}

TEST(Coarsening, MatchingIsMutualAndAlongEdges) {
    for (const bool weighted : {false, true}) {
        const Graph g = coarseningFixture(weighted);
        const auto match = heavyEdgeMatching(g);
        ASSERT_EQ(match.size(), g.numberOfNodes());
        count matched = 0;
        for (node u = 0; u < g.numberOfNodes(); ++u) {
            if (match[u] == u) continue;
            EXPECT_EQ(match[match[u]], u) << "matching must be mutual";
            EXPECT_TRUE(g.hasEdge(u, match[u])) << "matches must follow edges";
            ++matched;
        }
        EXPECT_GT(matched, g.numberOfNodes() / 4) << "matching too sparse";
    }
}

TEST(Coarsening, LevelsConserveWeightAndComponents) {
    for (const bool weighted : {false, true}) {
        const Graph g = coarseningFixture(weighted);
        CoarseningOptions options;
        options.coarsestSize = 20;
        const auto hierarchy = buildCoarseningHierarchy(g, options);
        ASSERT_GE(hierarchy.size(), 2u);

        const Graph* fine = &g;
        for (const auto& level : hierarchy) {
            ASSERT_EQ(level.fineNodes(), fine->numberOfNodes());
            EXPECT_LT(level.graph.numberOfNodes(), fine->numberOfNodes());

            // Total edge weight is conserved: mapped into coarse edges or
            // collapsed inside matched pairs, nothing lost or invented.
            const double total = fine->totalEdgeWeight();
            EXPECT_NEAR(level.mappedWeight + level.contractedWeight, total,
                        1e-9 * std::max(1.0, total));

            // Contraction along edges never merges or splits components.
            ConnectedComponents fineCc(*fine), coarseCc(level.graph);
            fineCc.run();
            coarseCc.run();
            EXPECT_EQ(fineCc.numberOfComponents(), coarseCc.numberOfComponents());

            // members/fineToCoarse form a partition into clusters of <= 2.
            std::vector<count> seen(level.fineNodes(), 0);
            for (node c = 0; c < level.coarseNodes(); ++c) {
                const auto& m = level.members[c];
                ASSERT_NE(m[0], none);
                EXPECT_EQ(level.fineToCoarse[m[0]], c);
                ++seen[m[0]];
                if (m[1] != none) {
                    EXPECT_EQ(level.fineToCoarse[m[1]], c);
                    EXPECT_GT(level.pairDistance[c], 0.0);
                    ++seen[m[1]];
                }
            }
            for (node u = 0; u < level.fineNodes(); ++u) {
                EXPECT_EQ(seen[u], 1u) << "fine node " << u << " not covered exactly once";
            }
            fine = &level.graph;
        }
        EXPECT_LE(fine->numberOfNodes(), 20u + 10u); // 10 isolated singletons ride along
    }
}

TEST(Coarsening, ProlongationCoversEveryFineNodeExactlyOnce) {
    const Graph g = coarseningFixture(true);
    const auto match = heavyEdgeMatching(g);
    const auto level = contractMatching(g, match);

    std::vector<Point3> coarse(level.coarseNodes());
    Rng rng(31);
    for (auto& p : coarse) p = {rng.real01(), rng.real01(), rng.real01()};

    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<Point3> fine(level.fineNodes(), Point3{nan, nan, nan});
    prolongCoordinates(level, coarse, fine, /*seed=*/1);

    for (node u = 0; u < level.fineNodes(); ++u) {
        EXPECT_TRUE(std::isfinite(fine[u].x) && std::isfinite(fine[u].y) &&
                    std::isfinite(fine[u].z))
            << "fine node " << u << " not written by prolongation";
    }
    for (node c = 0; c < level.coarseNodes(); ++c) {
        const auto& m = level.members[c];
        if (m[1] == none) {
            EXPECT_EQ(fine[m[0]], coarse[c]);
        } else {
            // Pair split symmetrically about the coarse position, at the
            // prescribed distance.
            EXPECT_LT(((fine[m[0]] + fine[m[1]]) * 0.5).distance(coarse[c]), 1e-12);
            EXPECT_NEAR(fine[m[0]].distance(fine[m[1]]), level.pairDistance[c], 1e-9);
        }
    }
}

TEST(Coarsening, StopsOnEdgelessAndTinyGraphs) {
    Graph edgeless(100);
    EXPECT_TRUE(buildCoarseningHierarchy(edgeless, {}).empty());
    const auto tiny = generators::karateClub(); // 34 <= coarsestSize
    EXPECT_TRUE(buildCoarseningHierarchy(tiny, {}).empty());
}

// -- multilevel solver ------------------------------------------------------

TEST(MultilevelMaxentStress, ReportsHierarchyAndBeatsSingleLevelStress) {
    // A 3D grid has a perfect embedding; the V-cycle must reach it at
    // least as well as the widget's old cold schedule (30 single-level
    // iterations from random init), and report its hierarchy shape.
    const auto g = generators::grid3D(8, 8, 8);
    MultilevelMaxentStress ml(g, 3);
    ml.run();
    EXPECT_GE(ml.levels(), 3u);
    EXPECT_LE(ml.coarsestNodes(), 100u);
    EXPECT_GT(ml.iterationsDone(), 0u);
    const double mlStress = layoutStress(g, ml.getCoordinates());

    MaxentStress::Parameters params;
    params.iterations = 30;
    MaxentStress sl(g, 3, params);
    sl.run();
    EXPECT_LE(mlStress, layoutStress(g, sl.getCoordinates()));
}

TEST(MultilevelMaxentStress, WarmStartMatchesSingleLevelFastPath) {
    // Seeded with warmStartIterations > 0, the multilevel solver takes the
    // exact capped-polish path of the single-level solver: same kernel,
    // same schedule, bit-identical coordinates.
    const auto g = generators::erdosRenyi(150, 0.05, 11);
    const auto seedCoords = randomBallLayout(g.numberOfNodes(), 77);

    MultilevelMaxentStress::Parameters mlParams;
    mlParams.sweep.iterations = 30;
    mlParams.sweep.warmStartIterations = 10;
    MultilevelMaxentStress ml(g, 3, mlParams);
    ml.setInitialCoordinates(seedCoords);
    ml.run();
    EXPECT_EQ(ml.levels(), 1u);

    MaxentStress::Parameters slParams;
    slParams.iterations = 30;
    slParams.warmStartIterations = 10;
    MaxentStress sl(g, 3, slParams);
    sl.setInitialCoordinates(seedCoords);
    sl.run();

    EXPECT_EQ(ml.getCoordinates(), sl.getCoordinates());
    EXPECT_EQ(ml.iterationsDone(), sl.iterationsDone());
}

TEST(MultilevelMaxentStress, DeterministicAcrossThreadCounts) {
    // Fixed seed => identical output for 1/2/8 OpenMP threads. The large
    // graph also crosses the octree's parallel root-partition threshold,
    // covering the chunked counting sort.
    const auto small = generators::erdosRenyi(400, 0.02, 5);
    const auto large = generators::erdosRenyi(5000, 0.0015, 5);
    const int savedThreads = omp_get_max_threads();
    for (const Graph* g : {&small, &large}) {
        std::vector<Point3> reference;
        count referenceIters = 0;
        for (const int threads : {1, 2, 8}) {
            omp_set_num_threads(threads);
            MultilevelMaxentStress ml(*g, 3);
            ml.run();
            if (reference.empty()) {
                reference = ml.getCoordinates();
                referenceIters = ml.iterationsDone();
            } else {
                EXPECT_EQ(ml.getCoordinates(), reference)
                    << "thread count " << threads << " changed the layout";
                EXPECT_EQ(ml.iterationsDone(), referenceIters);
            }
        }
    }
    omp_set_num_threads(savedThreads);
}

TEST(MultilevelMaxentStress, HandlesTrivialAndIsolatedGraphs) {
    Graph empty;
    Graph one(1);
    Graph sparse(60); // isolated nodes only: hierarchy must bail out
    sparse.addEdge(0, 1);
    for (const Graph* g : {&empty, &one, &sparse}) {
        MultilevelMaxentStress ml(*g, 3);
        ml.run();
        ASSERT_EQ(ml.getCoordinates().size(), g->numberOfNodes());
        for (const auto& p : ml.getCoordinates()) {
            EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z));
        }
    }
    EXPECT_THROW(MultilevelMaxentStress(one, 2), std::invalid_argument);
}

TEST(MaxentWorkspace, RhoCachedAcrossBindsOnSameVersion) {
    Graph g(4, /*weighted=*/true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 2.0);
    MaxentWorkspace ws;
    ws.bind(g);
    ASSERT_EQ(ws.rho().size(), 4u);
    EXPECT_DOUBLE_EQ(ws.rho()[1], 0.5); // 1/4 + 1/4
    EXPECT_DOUBLE_EQ(ws.rho()[3], 0.0); // isolated

    ws.bind(g); // same version: cached (still correct values)
    EXPECT_DOUBLE_EQ(ws.rho()[1], 0.5);

    g.addEdge(1, 3, 1.0); // version bump: rho must be recomputed
    ws.bind(g);
    EXPECT_DOUBLE_EQ(ws.rho()[1], 1.5);
    EXPECT_DOUBLE_EQ(ws.rho()[3], 1.0);
}

TEST(LayoutStress, PerfectLayoutZeroStress) {
    // A path laid out exactly at its graph distances has zero stress.
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    std::vector<Point3> coords{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}};
    EXPECT_DOUBLE_EQ(layoutStress(g, coords), 0.0);
    EXPECT_THROW(layoutStress(g, std::vector<Point3>(2)), std::invalid_argument);
}

TEST(Node2Vec, WalksHaveRequestedShape) {
    const auto g = generators::karateClub();
    Node2Vec::Parameters params;
    params.walkLength = 10;
    params.walksPerNode = 2;
    Node2Vec n2v(g, params);
    n2v.run();
    EXPECT_EQ(n2v.walks().size(), 34u * 2u);
    for (const auto& w : n2v.walks()) {
        EXPECT_EQ(w.size(), 10u);
        // Consecutive nodes are connected.
        for (count i = 1; i < w.size(); ++i) EXPECT_TRUE(g.hasEdge(w[i - 1], w[i]));
    }
}

TEST(Node2Vec, FeaturesHaveRequestedDimensions) {
    const auto g = generators::karateClub();
    Node2Vec::Parameters params;
    params.dimensions = 16;
    Node2Vec n2v(g, params);
    n2v.run();
    ASSERT_EQ(n2v.features().size(), 34u);
    for (const auto& row : n2v.features()) EXPECT_EQ(row.size(), 16u);
}

TEST(Node2Vec, CommunityStructureReflectedInSimilarity) {
    // Two cliques + bridge: same-clique nodes should be more similar than
    // cross-clique ones on average.
    Graph g(16);
    for (node u = 0; u < 8; ++u) {
        for (node v = u + 1; v < 8; ++v) {
            g.addEdge(u, v);
            g.addEdge(u + 8, v + 8);
        }
    }
    g.addEdge(0, 8);
    Node2Vec::Parameters params;
    params.epochs = 3;
    params.walksPerNode = 10;
    Node2Vec n2v(g, params);
    n2v.run();
    double intra = 0.0, inter = 0.0;
    count nIntra = 0, nInter = 0;
    for (node u = 0; u < 16; ++u) {
        for (node v = u + 1; v < 16; ++v) {
            if ((u < 8) == (v < 8)) {
                intra += n2v.cosineSimilarity(u, v);
                ++nIntra;
            } else {
                inter += n2v.cosineSimilarity(u, v);
                ++nInter;
            }
        }
    }
    EXPECT_GT(intra / nIntra, inter / nInter);
}

TEST(Node2Vec, ParameterValidation) {
    const auto g = generators::karateClub();
    Node2Vec::Parameters bad;
    bad.p = 0.0;
    EXPECT_THROW(Node2Vec(g, bad), std::invalid_argument);
    Node2Vec::Parameters bad2;
    bad2.dimensions = 0;
    EXPECT_THROW(Node2Vec(g, bad2), std::invalid_argument);
    Node2Vec ok(g);
    EXPECT_THROW(ok.features(), std::logic_error);
    EXPECT_THROW(ok.cosineSimilarity(0, 1), std::logic_error);
}

TEST(Node2Vec, IsolatedNodesGetNoWalksButKeepRows) {
    Graph g(5);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    Node2Vec n2v(g);
    n2v.run();
    EXPECT_EQ(n2v.features().size(), 5u);
    for (const auto& w : n2v.walks()) {
        for (node u : w) EXPECT_LT(u, 3u); // walks never visit isolated nodes
    }
}


/// The straightforward node2vec: per-walk vectors, row-vector matrices and
/// a std::lower_bound negative sampler. Node2Vec must reproduce its walks
/// and embeddings bit for bit: same RNG streams, same draw order, same
/// floating-point operation order.
struct ReferenceNode2Vec {
    std::vector<std::vector<node>> walks;
    std::vector<std::vector<double>> emb;
};

ReferenceNode2Vec referenceNode2Vec(const Graph& g, const Node2Vec::Parameters& params) {
    ReferenceNode2Vec out;
    const count n = g.numberOfNodes();
    {
        Rng rng(params.seed);
        for (count r = 0; r < params.walksPerNode; ++r) {
            for (node start = 0; start < n; ++start) {
                if (g.degree(start) == 0) continue;
                std::vector<node> walk{start};
                node prev = none;
                node cur = start;
                while (walk.size() < params.walkLength) {
                    const auto nbrs = g.neighbors(cur);
                    if (nbrs.empty()) break;
                    node chosen = none;
                    if (prev == none) {
                        chosen = nbrs[rng.pick(nbrs.size())];
                    } else {
                        const double wMax =
                            std::max({1.0, 1.0 / params.p, 1.0 / params.q});
                        for (int attempt = 0; attempt < 256; ++attempt) {
                            const node cand = nbrs[rng.pick(nbrs.size())];
                            const double w = cand == prev          ? 1.0 / params.p
                                             : g.hasEdge(cand, prev) ? 1.0
                                                                     : 1.0 / params.q;
                            if (rng.real01() * wMax <= w) {
                                chosen = cand;
                                break;
                            }
                        }
                        if (chosen == none) chosen = nbrs[rng.pick(nbrs.size())];
                    }
                    walk.push_back(chosen);
                    prev = cur;
                    cur = chosen;
                }
                out.walks.push_back(std::move(walk));
            }
        }
    }

    const count d = params.dimensions;
    Rng rng(params.seed + 0x5bd1e995u);
    auto& emb = out.emb;
    emb.assign(n, std::vector<double>(d));
    std::vector<std::vector<double>> ctx(n, std::vector<double>(d, 0.0));
    for (auto& row : emb) {
        for (auto& x : row) x = (rng.real01() - 0.5) / static_cast<double>(d);
    }
    std::vector<double> cdf(n, 0.0);
    double total = 0.0;
    for (node u = 0; u < n; ++u) {
        total += std::pow(static_cast<double>(g.degree(u)), 0.75);
        cdf[u] = total;
    }
    auto sampleNegative = [&]() {
        const double x = rng.real01() * total;
        return static_cast<node>(std::lower_bound(cdf.begin(), cdf.end(), x) -
                                 cdf.begin());
    };
    auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
    std::vector<double> grad(d);
    for (count epoch = 0; epoch < params.epochs; ++epoch) {
        const double lr =
            params.learningRate *
            (1.0 - static_cast<double>(epoch) /
                       static_cast<double>(std::max<count>(params.epochs, 1)));
        for (const auto& walk : out.walks) {
            for (count i = 0; i < walk.size(); ++i) {
                const node center = walk[i];
                const count lo = i >= params.windowSize ? i - params.windowSize : 0;
                const count hi = std::min<count>(i + params.windowSize, walk.size() - 1);
                for (count j = lo; j <= hi; ++j) {
                    if (j == i) continue;
                    const node context = walk[j];
                    std::fill(grad.begin(), grad.end(), 0.0);
                    for (count s = 0; s <= params.negativeSamples; ++s) {
                        const bool positive = (s == 0);
                        const node target = positive ? context : sampleNegative();
                        if (!positive && target == context) continue;
                        double dot = 0.0;
                        for (count k = 0; k < d; ++k)
                            dot += emb[center][k] * ctx[target][k];
                        const double gr = (positive ? 1.0 : 0.0) - sigmoid(dot);
                        for (count k = 0; k < d; ++k) {
                            grad[k] += gr * ctx[target][k];
                            ctx[target][k] += lr * gr * emb[center][k];
                        }
                    }
                    for (count k = 0; k < d; ++k) emb[center][k] += lr * grad[k];
                }
            }
        }
    }
    return out;
}

TEST(Node2Vec, MatchesReferenceBitForBit) {
    // Two 6-cliques joined by one edge, plus three isolated nodes in the
    // middle of the id range (zero-weight plateaus in the negative cdf).
    Graph cliques(15);
    for (node u = 0; u < 6; ++u) {
        for (node v = u + 1; v < 6; ++v) {
            cliques.addEdge(u, v);
            cliques.addEdge(u + 9, v + 9);
        }
    }
    cliques.addEdge(5, 9);
    const Graph karate = generators::karateClub();
    const Graph helixRin = rin::RinBuilder(rin::DistanceCriterion::MinimumAtomDistance)
                               .build(md::helixBundle(300), 4.5);
    const std::pair<const char*, const Graph*> graphs[] = {
        {"karate", &karate},
        {"cliques+isolated", &cliques},
        {"helixBundle(300)", &helixRin}};

    std::vector<std::pair<const char*, Node2Vec::Parameters>> sets;
    sets.emplace_back("defaults", Node2Vec::Parameters{});
    Node2Vec::Parameters pq;
    pq.p = 0.5;
    pq.q = 2.0;
    sets.emplace_back("p=0.5,q=2", pq);
    Node2Vec::Parameters epochs;
    epochs.epochs = 3;
    sets.emplace_back("epochs=3", epochs);
    Node2Vec::Parameters walks;
    walks.walksPerNode = 2;
    sets.emplace_back("walksPerNode=2", walks);
    Node2Vec::Parameters negatives;
    negatives.negativeSamples = 5;
    sets.emplace_back("negativeSamples=5", negatives);
    Node2Vec::Parameters d16;
    d16.dimensions = 16;
    sets.emplace_back("d=16", d16);
    Node2Vec::Parameters d32;
    d32.dimensions = 32;
    d32.seed = 11;
    sets.emplace_back("d=32,seed=11", d32);

    for (const auto& [graphName, graph] : graphs) {
        const Graph& g = *graph;
        for (auto [setName, params] : sets) {
            // The 300-residue RIN walks 10 steps, as the pipeline does, so
            // the test stays fast under the sanitizers.
            if (graph == &helixRin) params.walkLength = 10;
            SCOPED_TRACE(std::string(graphName) + " / " + setName);
            Node2Vec n2v(g, params);
            n2v.run();
            const ReferenceNode2Vec ref = referenceNode2Vec(g, params);
            EXPECT_EQ(n2v.walks(), ref.walks);
            EXPECT_TRUE(n2v.features() == ref.emb) << "embeddings differ";
        }
    }
}

TEST(CdfGuideTable, EqualsLowerBoundEverywhere) {
    const auto reference = [](const std::vector<double>& cdf, double x) {
        return static_cast<index>(std::lower_bound(cdf.begin(), cdf.end(), x) -
                                  cdf.begin());
    };
    Rng rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        // Random weights, a third of them zero (cdf plateaus), sometimes a
        // leading or trailing run of zeros; the first trials are tiny.
        const count n = trial < 20 ? static_cast<count>(trial) + 1 : rng.pick(300) + 1;
        std::vector<double> cdf(n);
        double total = 0.0;
        for (count i = 0; i < n; ++i) {
            const bool zero = rng.chance(1.0 / 3.0) || (trial % 4 == 1 && i < n / 3) ||
                              (trial % 4 == 2 && i >= n - n / 3);
            if (!zero)
                total += trial % 2 ? std::pow(rng.real(0.0, 5.0), 0.75)
                                   : rng.real(0.0, 1e-3);
            cdf[i] = total;
        }
        const CdfGuideTable table(cdf);
        std::vector<double> probes = {0.0, -1.0, total, std::nextafter(total, 0.0),
                                      total * 2.0 + 1.0};
        for (double c : cdf) {
            probes.push_back(c); // exactly on a cdf value
            probes.push_back(std::nextafter(c, -1.0));
            probes.push_back(std::nextafter(c, total * 4.0 + 1.0));
        }
        for (count b = 0; b <= n; ++b) {
            const double edge = static_cast<double>(b) * (total / static_cast<double>(n));
            probes.push_back(edge); // exactly on a bin edge
            probes.push_back(std::nextafter(edge, -1.0));
            probes.push_back(std::nextafter(edge, total * 4.0 + 1.0));
        }
        for (int k = 0; k < 200; ++k) probes.push_back(rng.real01() * total);
        for (double x : probes)
            ASSERT_EQ(table.lowerBound(x), reference(cdf, x))
                << "trial " << trial << ", n " << n << ", x " << x << ", total " << total;
    }
    // No positive weight at all: every query still answers like lower_bound.
    const std::vector<double> zeros(5, 0.0);
    const CdfGuideTable flat(zeros);
    for (double x : {-1.0, 0.0, 0.5})
        EXPECT_EQ(flat.lowerBound(x), reference(zeros, x)) << "x " << x;
    EXPECT_EQ(CdfGuideTable({}).lowerBound(0.0), 0u);
}

} // namespace
} // namespace rinkit
