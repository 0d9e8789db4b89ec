#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"

namespace dgap {
namespace {

bool is_independent(const Graph& g, const std::vector<NodeId>& set) {
  std::set<NodeId> s(set.begin(), set.end());
  for (NodeId v : set) {
    for (NodeId u : g.neighbors(v)) {
      if (s.count(u)) return false;
    }
  }
  return true;
}

/// Brute-force α by enumerating all subsets (tiny graphs only).
int alpha_brute(const Graph& g) {
  const int n = g.num_nodes();
  int best = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool ok = true;
    for (NodeId v = 0; v < n && ok; ++v) {
      if (!(mask & (1 << v))) continue;
      for (NodeId u : g.neighbors(v)) {
        if (u > v && (mask & (1 << u))) {
          ok = false;
          break;
        }
      }
    }
    if (ok) best = std::max(best, __builtin_popcount(mask));
  }
  return best;
}

TEST(Exact, AlphaOnKnownFamilies) {
  EXPECT_EQ(independence_number(make_line(1)), 1);
  EXPECT_EQ(independence_number(make_line(5)), 3);   // ⌈n/2⌉
  EXPECT_EQ(independence_number(make_line(6)), 3);
  EXPECT_EQ(independence_number(make_ring(6)), 3);   // ⌊n/2⌋
  EXPECT_EQ(independence_number(make_ring(7)), 3);
  EXPECT_EQ(independence_number(make_clique(7)), 1);
  EXPECT_EQ(independence_number(make_star(9)), 8);
  EXPECT_EQ(independence_number(make_complete_bipartite(3, 5)), 5);
  EXPECT_EQ(independence_number(make_grid(3, 3)), 5);
}

TEST(Exact, AlphaMatchesBruteForceOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId n = 4 + static_cast<NodeId>(rng.next_below(9));
    Graph g = make_gnp(n, 0.3, rng);
    EXPECT_EQ(independence_number(g), alpha_brute(g)) << "trial " << trial;
  }
}

TEST(Exact, WitnessIsIndependentAndMaximumSized) {
  Rng rng(7);
  Graph g = make_gnp(18, 0.25, rng);
  auto mis = maximum_independent_set(g);
  EXPECT_TRUE(is_independent(g, mis));
  EXPECT_EQ(static_cast<int>(mis.size()), independence_number(g));
}

TEST(Exact, GallaiIdentity) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(12, 0.4, rng);
    EXPECT_EQ(vertex_cover_number(g) + independence_number(g), 12);
  }
  EXPECT_EQ(vertex_cover_number(make_star(10)), 1);   // the center
  EXPECT_EQ(vertex_cover_number(make_clique(6)), 5);  // all but one
}

TEST(Exact, FastOnLongPaths) {
  // Degree-1 reductions make paths easy despite exponential worst case.
  Graph g = make_line(2000);
  EXPECT_EQ(independence_number(g), 1000);
}

TEST(Exact, BudgetExceededThrows) {
  Rng rng(123);
  Graph g = make_gnp(40, 0.5, rng);
  EXPECT_THROW(independence_number(g, /*node_budget=*/10),
               std::invalid_argument);
}

TEST(Exact, EnumerateMaximalIndependentSetsOnTriangle) {
  Graph g = make_clique(3);
  std::set<std::vector<NodeId>> seen;
  enumerate_maximal_independent_sets(g, [&](const std::vector<NodeId>& s) {
    auto sorted = s;
    std::sort(sorted.begin(), sorted.end());
    seen.insert(sorted);
    return true;
  });
  // Each single vertex is a maximal independent set of K3.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Exact, EnumerateMaximalIndependentSetsOnPath4) {
  Graph g = make_line(4);
  std::set<std::vector<NodeId>> seen;
  enumerate_maximal_independent_sets(g, [&](const std::vector<NodeId>& s) {
    auto sorted = s;
    std::sort(sorted.begin(), sorted.end());
    seen.insert(sorted);
    return true;
  });
  // {0,2}, {0,3}, {1,3} are the maximal independent sets of P4.
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen.count({0, 2}));
  EXPECT_TRUE(seen.count({0, 3}));
  EXPECT_TRUE(seen.count({1, 3}));
}

TEST(Exact, EnumerationSetsAreMaximalAndIndependent) {
  Rng rng(17);
  Graph g = make_gnp(10, 0.3, rng);
  int count = 0;
  enumerate_maximal_independent_sets(g, [&](const std::vector<NodeId>& s) {
    ++count;
    EXPECT_TRUE(is_independent(g, s));
    // Maximality: every vertex outside has a neighbor inside.
    std::set<NodeId> in(s.begin(), s.end());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (in.count(v)) continue;
      bool dominated = false;
      for (NodeId u : g.neighbors(v)) {
        if (in.count(u)) dominated = true;
      }
      EXPECT_TRUE(dominated) << "vertex " << v << " could be added";
    }
    return true;
  });
  EXPECT_GT(count, 0);
}

TEST(Exact, SequentialMisIsValid) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(30, 0.15, rng);
    auto in = sequential_mis(g);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (in[v]) {
        for (NodeId u : g.neighbors(v)) EXPECT_FALSE(in[u]);
      } else {
        bool covered = false;
        for (NodeId u : g.neighbors(v)) covered = covered || in[u];
        EXPECT_TRUE(covered);
      }
    }
  }
}

TEST(Exact, SequentialMatchingIsMaximal) {
  Rng rng(4);
  Graph g = make_gnp(25, 0.2, rng);
  auto mate = sequential_maximal_matching(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mate[v] != kNoNode) {
      EXPECT_EQ(mate[mate[v]], v);
      EXPECT_TRUE(g.has_edge(v, mate[v]));
    } else {
      for (NodeId u : g.neighbors(v)) EXPECT_NE(mate[u], kNoNode);
    }
  }
}

TEST(Exact, SequentialVertexColoringProper) {
  Rng rng(5);
  Graph g = make_gnp(25, 0.3, rng);
  auto color = sequential_vertex_coloring(g);
  const Value palette = g.max_degree() + 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(color[v], 1);
    EXPECT_LE(color[v], palette);
    for (NodeId u : g.neighbors(v)) EXPECT_NE(color[v], color[u]);
  }
}

TEST(Exact, SequentialEdgeColoringProper) {
  Rng rng(6);
  Graph g = make_gnp(15, 0.3, rng);
  auto colors = sequential_edge_coloring(g);
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  ASSERT_EQ(colors.size(), g.offsets().back());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::set<Value> seen;
    for (NodeId u : g.neighbors(v)) {
      const Value c = colors[g.edge_slot(v, u)];
      EXPECT_GE(c, 1);
      EXPECT_LE(c, palette);
      EXPECT_TRUE(seen.insert(c).second) << "node " << v << " repeats a color";
      EXPECT_EQ(colors[g.edge_slot(u, v)], c);  // the other endpoint agrees
    }
  }
}

}  // namespace
}  // namespace dgap
