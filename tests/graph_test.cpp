#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "graph/spec.hpp"

namespace dgap {
namespace {

/// The CSR invariants every builder must produce: rows sorted and
/// duplicate-free, edge_slot(v, neighbors(v)[j]) == offsets[v] + j for
/// every directed edge, kNoSlot for non-neighbors, and a Δ equal to a full
/// recount of the degrees.
void expect_csr_invariants(const Graph& g) {
  const NodeId n = g.num_nodes();
  const auto offsets = g.offsets();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(n) + 1);
  EXPECT_EQ(static_cast<std::int64_t>(offsets.back()), 2 * g.num_edges());
  int recount = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    recount = std::max(recount, static_cast<int>(nb.size()));
    EXPECT_EQ(g.degree(v), static_cast<int>(nb.size()));
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end())) << "row " << v;
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end())
        << "row " << v;
    for (std::size_t j = 0; j < nb.size(); ++j) {
      ASSERT_EQ(g.edge_slot(v, nb[j]), offsets[v] + j)
          << "edge (" << v << ", " << nb[j] << ")";
    }
    // Every non-neighbor (v itself included) maps to the sentinel; large
    // graphs probe v and its index neighbors only.
    const auto probe = [&](NodeId u) {
      if (!std::binary_search(nb.begin(), nb.end(), u)) {
        ASSERT_EQ(g.edge_slot(v, u), Graph::kNoSlot)
            << "non-edge (" << v << ", " << u << ")";
      }
    };
    if (n <= 256) {
      for (NodeId u = 0; u < n; ++u) probe(u);
    } else {
      for (const NodeId u : {v, (v + 1) % n, (v + n - 1) % n}) probe(u);
    }
  }
  EXPECT_EQ(g.max_degree(), recount);
}

/// The DGAP_REQUIRE message thrown by building Graph(n, edges).
std::string build_error(NodeId n, const std::vector<Graph::Edge>& edges) {
  try {
    Graph g(n, edges);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, DefaultIdsAreOneBased) {
  Graph g(4);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.id(v), v + 1);
  EXPECT_EQ(g.id_bound(), 4);
}

TEST(Graph, BuildAndQueryEdges) {
  Graph g(4, {{2, 3}, {0, 2}});
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.neighbors(2).size(), 2u);
  EXPECT_EQ(g.neighbors(2)[0], 0);
  EXPECT_EQ(g.neighbors(2)[1], 3);
  EXPECT_EQ(g.edge_slot(2, 3), g.offsets()[2] + 1);
  EXPECT_EQ(g.edge_slot(0, 1), Graph::kNoSlot);
  expect_csr_invariants(g);
}

TEST(Graph, RejectsSelfLoopAndDuplicates) {
  EXPECT_NO_THROW(Graph(3, {{0, 1}}));
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {0, 5}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{-1, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
  // The messages callers (apply_edits on outside edit batches) rely on.
  EXPECT_NE(build_error(3, {{1, 1}}).find("no self-loops in a simple graph"),
            std::string::npos);
  EXPECT_NE(build_error(3, {{0, 1}, {1, 0}}).find("edge already present"),
            std::string::npos);
  EXPECT_NE(build_error(3, {{0, 5}}).find("node index out of range"),
            std::string::npos);
}

TEST(Graph, SetIdsValidatesDistinctness) {
  Graph g(3);
  EXPECT_THROW(g.set_ids({1, 2, 2}), std::invalid_argument);
  EXPECT_THROW(g.set_ids({0, 1, 2}), std::invalid_argument);
  g.set_ids({10, 20, 30});
  EXPECT_EQ(g.id(2), 30);
  EXPECT_GE(g.id_bound(), 30);
}

TEST(Graph, EdgesListSorted) {
  Graph g = make_ring(4);
  auto es = g.edges();
  ASSERT_EQ(es.size(), 4u);
  for (auto [u, v] : es) EXPECT_LT(u, v);
}

TEST(Graph, InducedSubgraphKeepsIdsAndEdges) {
  Graph g = make_ring(5);
  g.set_ids({10, 20, 30, 40, 50});
  auto [sub, map] = g.induced({1, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 2);  // path 1-2-3
  EXPECT_EQ(sub.id(0), 20);
  EXPECT_EQ(sub.id(2), 40);
  EXPECT_EQ(sub.id_bound(), g.id_bound());
  EXPECT_EQ(map[0], 1);
  expect_csr_invariants(sub);
}

TEST(Generators, Line) {
  Graph g = make_line(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(is_tree(g));
  EXPECT_EQ(diameter(g), 4);
  expect_csr_invariants(g);
}

TEST(Generators, Ring) {
  Graph g = make_ring(6);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(diameter(g), 3);
  expect_csr_invariants(g);
}

TEST(Generators, Clique) {
  Graph g = make_clique(5);
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_EQ(diameter(g), 1);
  expect_csr_invariants(g);
}

TEST(Generators, Star) {
  Graph g = make_star(6);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_EQ(diameter(g), 2);
  expect_csr_invariants(g);
}

// Figure 1: F_k has diameter 4, but the induced rim has diameter ⌊k/2⌋.
TEST(Generators, WheelFkMatchesFigure1) {
  for (NodeId k : {3, 5, 8, 12}) {
    Graph g = make_wheel_fk(k);
    EXPECT_EQ(g.num_nodes(), 2 * k + 1);
    EXPECT_EQ(g.num_edges(), 3 * k);
    // Going through the hub bounds every distance by 4 once the rim is
    // long enough for the hub route to be the shortest.
    if (k >= 8) {
      EXPECT_EQ(diameter(g), 4);
    }
    std::vector<NodeId> rim;
    for (NodeId i = 0; i < k; ++i) rim.push_back(1 + k + i);
    auto [sub, map] = g.induced(rim);
    EXPECT_EQ(diameter(sub), k / 2);
    expect_csr_invariants(g);
    expect_csr_invariants(sub);
  }
  EXPECT_EQ(diameter(make_wheel_fk(8)), 4);
}

TEST(Generators, Grid) {
  Graph g = make_grid(4, 3);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 4 * 2);  // horizontal + vertical
  EXPECT_EQ(diameter(g), 5);
  expect_csr_invariants(g);
}

TEST(Generators, Hypercube) {
  Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(diameter(g), 4);
  expect_csr_invariants(g);
}

TEST(Generators, CompleteBipartite) {
  Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(diameter(g), 2);
  expect_csr_invariants(g);
}

TEST(Generators, GnpRespectsExtremes) {
  Rng rng(1);
  Graph empty = make_gnp(10, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0);
  Graph full = make_gnp(10, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 45);
  expect_csr_invariants(empty);
  expect_csr_invariants(full);
  expect_csr_invariants(make_gnp(60, 0.1, rng));
}

TEST(Generators, GnpSparseRespectsExtremesAndExpectation) {
  Rng rng(41);
  Graph empty = make_gnp_sparse(10, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0);
  Graph full = make_gnp_sparse(10, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 45);
  // Sparse regime: the edge count concentrates around p * n(n-1)/2. With
  // n = 2000, p = 4/n the expectation is ~3998 with σ ≈ 63; ±5σ bounds
  // make a seeded flake impossible in practice.
  const NodeId n = 2000;
  Graph g = make_gnp_sparse(n, 4.0 / n, rng);
  EXPECT_GT(g.num_edges(), 3998 - 320);
  EXPECT_LT(g.num_edges(), 3998 + 320);
  expect_csr_invariants(full);
  expect_csr_invariants(g);
  // Deterministic for a fixed seed.
  Rng r1(7), r2(7);
  EXPECT_EQ(make_gnp_sparse(200, 0.05, r1).edges(),
            make_gnp_sparse(200, 0.05, r2).edges());
}

TEST(Generators, GnmHasExactlyMEdges) {
  Rng rng(42);
  for (const std::int64_t m : {0LL, 1LL, 100LL, 4950LL}) {
    Graph g = make_gnm(100, m, rng);
    EXPECT_EQ(g.num_nodes(), 100);
    EXPECT_EQ(g.num_edges(), m);
    expect_csr_invariants(g);
  }
  EXPECT_THROW(make_gnm(100, 4951, rng), std::invalid_argument);
  EXPECT_THROW(make_gnm(100, -1, rng), std::invalid_argument);
  Rng r1(9), r2(9);
  EXPECT_EQ(make_gnm(300, 600, r1).edges(), make_gnm(300, 600, r2).edges());
}

TEST(Generators, ParallelBuildersAreByteIdenticalAcrossThreadCounts) {
  // The block decomposition is a pure function of the instance (never of
  // num_threads), per-block seeds are drawn serially, and blocks merge in
  // block order — so the thread count can only change who executes a
  // block, never what it contains. n is large enough for several blocks.
  const NodeId n = 20000;
  Graph gnp1 = [&] { Rng r(77); return make_gnp_sparse(n, 6.0 / n, r, 1); }();
  Graph gnm1 = [&] { Rng r(78); return make_gnm(n, 3 * n, r, 1); }();
  for (const int threads : {2, 4}) {
    Rng rp(77), rm(78);
    EXPECT_EQ(gnp1.edges(), make_gnp_sparse(n, 6.0 / n, rp, threads).edges());
    EXPECT_EQ(gnm1.edges(), make_gnm(n, 3 * n, rm, threads).edges());
  }
}

TEST(Generators, SparseFamiliesBuildThroughGraphSpec) {
  const GraphSpec gnps = GraphSpec::gnp_sparse(256, 8.0 / 256, 17,
                                               GraphSpec::IdPolicy::kRandomized);
  const Graph a = gnps.build();
  const Graph b = gnps.build();
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.ids(), b.ids());
  expect_csr_invariants(a);
  EXPECT_EQ(gnps.name(), "gnps_256_p0.03125_s17_rid");

  const GraphSpec gnm = GraphSpec::gnm(256, 512, 23);
  const Graph c = gnm.build();
  EXPECT_EQ(c.num_edges(), 512);
  expect_csr_invariants(c);
  EXPECT_EQ(gnm.name(), "gnm_256_m512_s23");
}

TEST(Generators, DerivedNodeCountsOverflowCleanly) {
  // Each of these products/sums exceeds NodeId (int32) when computed in 64
  // bits; the generators must reject them instead of wrapping silently.
  EXPECT_THROW(make_grid(65536, 65536), std::invalid_argument);
  EXPECT_THROW(make_caterpillar(1 << 20, 1 << 12), std::invalid_argument);
  EXPECT_THROW(make_complete_bipartite(2000000000, 2000000000),
               std::invalid_argument);
  EXPECT_THROW(make_wheel_fk(1500000000), std::invalid_argument);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(3);
  for (NodeId n : {1, 2, 3, 10, 50}) {
    Graph g = make_random_tree(n, rng);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_TRUE(is_tree(g)) << "n=" << n;
    expect_csr_invariants(g);
  }
}

TEST(Generators, RandomConnectedHasExtraEdges) {
  Rng rng(4);
  Graph g = make_random_connected(20, 10, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 19 + 10);
  expect_csr_invariants(g);
}

TEST(Generators, RootedLineStructure) {
  RootedTree t = make_rooted_line(5);
  EXPECT_EQ(t.parent[0], kNoNode);
  EXPECT_EQ(t.parent[4], 3);
  EXPECT_TRUE(is_tree(t.graph));
  expect_csr_invariants(t.graph);
}

TEST(Generators, RootedBinaryTree) {
  RootedTree t = make_rooted_binary_tree(3);
  EXPECT_EQ(t.graph.num_nodes(), 15);
  EXPECT_TRUE(is_tree(t.graph));
  EXPECT_EQ(t.parent[14], 6);
  expect_csr_invariants(t.graph);
}

TEST(Generators, RootedRandomTreeParentsValid) {
  Rng rng(5);
  RootedTree t = make_rooted_random_tree(40, rng);
  EXPECT_TRUE(is_tree(t.graph));
  for (NodeId v = 1; v < 40; ++v) {
    EXPECT_GE(t.parent[v], 0);
    EXPECT_LT(t.parent[v], v);
    EXPECT_TRUE(t.graph.has_edge(v, t.parent[v]));
  }
  expect_csr_invariants(t.graph);
}

TEST(Generators, RootedKaryTree) {
  RootedTree t = make_rooted_kary_tree(3, 3);
  EXPECT_EQ(t.graph.num_nodes(), 1 + 3 + 9);
  EXPECT_TRUE(is_tree(t.graph));
  expect_csr_invariants(t.graph);
}

TEST(Generators, Caterpillar) {
  Graph g = make_caterpillar(4, 2);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_TRUE(is_tree(g));
  expect_csr_invariants(g);
}

TEST(Generators, DisjointUnionKeepsBothSidesAndDistinctIds) {
  Graph a = make_line(3), b = make_ring(4);
  Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.num_nodes(), 7);
  EXPECT_EQ(u.num_edges(), 2 + 4);
  std::set<Value> ids(u.ids().begin(), u.ids().end());
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_EQ(connected_components(u).size(), 2u);
  expect_csr_invariants(u);
}

TEST(Generators, RandomizeIdsIsPermutation) {
  Rng rng(6);
  Graph g = make_line(10);
  randomize_ids(g, rng);
  std::set<Value> ids(g.ids().begin(), g.ids().end());
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), 10);
}

TEST(Generators, SparseIdsWithinDomain) {
  Rng rng(7);
  Graph g = make_line(10);
  randomize_ids_sparse(g, 1000, rng);
  std::set<Value> ids(g.ids().begin(), g.ids().end());
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_GE(*ids.begin(), 1);
  EXPECT_LE(*ids.rbegin(), 1000);
  EXPECT_EQ(g.id_bound(), 1000);
}

TEST(Properties, ConnectedComponents) {
  Graph g(6, {{0, 1}, {2, 3}, {3, 4}});
  auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{5}));
}

TEST(Properties, BfsDistances) {
  Graph g = make_line(5);
  auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[4], 4);
  Graph h(3, {{0, 1}});
  auto d2 = bfs_distances(h, 0);
  EXPECT_EQ(d2[2], -1);
}

TEST(Properties, Degeneracy) {
  EXPECT_EQ(degeneracy(make_line(10)), 1);
  EXPECT_EQ(degeneracy(make_ring(10)), 2);
  EXPECT_EQ(degeneracy(make_clique(5)), 4);
  EXPECT_EQ(degeneracy(make_grid(5, 5)), 2);
  EXPECT_EQ(degeneracy(make_star(10)), 1);
}

TEST(Properties, MaxComponentSize) {
  Graph g = make_line(10);
  std::vector<bool> keep(10, true);
  keep[3] = false;
  EXPECT_EQ(max_component_size(g, keep), 6);
}

}  // namespace
}  // namespace dgap
