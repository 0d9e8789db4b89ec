// Local verification (Section 1.3): completeness (correct solutions are
// accepted by every node), soundness (any corruption makes at least one
// node reject), and the one-round cost the paper's consistency definition
// measures against.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "verify/local_verifier.hpp"

namespace dgap {
namespace {

TEST(VerifyMis, AcceptsCorrectSolutions) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(18, 0.2, rng);
    auto in = sequential_mis(g);
    std::vector<Value> claimed(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) claimed[i] = in[i] ? 1 : 0;
    auto vr = verify_mis_locally(g, claimed);
    EXPECT_TRUE(vr.accepted) << "trial " << trial;
    EXPECT_EQ(vr.rounds, 1);
  }
}

TEST(VerifyMis, RejectsEveryCorruption) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_random_connected(15, 8, rng);
    auto in = sequential_mis(g);
    std::vector<Value> claimed(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) claimed[i] = in[i] ? 1 : 0;
    // Flip one bit: the result is never a maximal independent set again
    // in only one flip? Flipping a 1 off may leave a valid... it can:
    // removing a set node can keep validity only if all its neighbors are
    // still dominated AND it becomes dominated — impossible: the removed
    // node now outputs 0 with no 1-neighbor. Flipping a 0 on creates two
    // adjacent 1s (it had a 1-neighbor). Either way, someone rejects.
    const NodeId v = static_cast<NodeId>(rng.next_below(15));
    claimed[v] = claimed[v] == 1 ? 0 : 1;
    auto vr = verify_mis_locally(g, claimed);
    EXPECT_FALSE(vr.accepted) << "trial " << trial << " flip " << v;
    EXPECT_FALSE(vr.rejecting.empty());
  }
}

TEST(VerifyMis, RejectorIsNearTheFault) {
  // Locality: the rejecting nodes must be within distance 1 of the flip.
  Rng rng(3);
  Graph g = make_line(30);
  std::vector<Value> claimed(30);
  for (NodeId v = 0; v < 30; ++v) claimed[v] = (v % 2 == 0) ? 1 : 0;
  claimed[14] = 1;  // adjacent 1s at 14 and (14±0...): 14 odd? 14 even.
  claimed[15] = 1;  // force two adjacent ones at 14,15
  auto vr = verify_mis_locally(g, claimed);
  ASSERT_FALSE(vr.accepted);
  for (NodeId r : vr.rejecting) {
    EXPECT_GE(r, 13);
    EXPECT_LE(r, 16);
  }
}

TEST(VerifyMatching, AcceptsAndRejects) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(16, 0.25, rng);
    auto mate = sequential_maximal_matching(g);
    std::vector<Value> claimed(mate.size());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      claimed[v] = mate[v] == kNoNode ? Value{kNoNode} : g.id(mate[v]);
    }
    EXPECT_TRUE(verify_matching_locally(g, claimed).accepted);
    // Corrupt: unmatch one side of a pair (asymmetry) or point a ⊥ node
    // at a random neighbor.
    NodeId v = static_cast<NodeId>(rng.next_below(16));
    if (claimed[v] != kNoNode) {
      claimed[v] = kNoNode;
    } else if (g.degree(v) > 0) {
      claimed[v] = g.id(g.neighbors(v).front());
    } else {
      continue;  // isolated ⊥ node: nothing to corrupt
    }
    EXPECT_FALSE(verify_matching_locally(g, claimed).accepted)
        << "trial " << trial;
  }
}

TEST(VerifyColoring, AcceptsAndRejects) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(16, 0.3, rng);
    auto color = sequential_vertex_coloring(g);
    const Value palette = g.max_degree() + 1;
    EXPECT_TRUE(verify_coloring_locally(g, color, palette).accepted);
    // Copy a neighbor's color (guaranteed clash) when possible.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) > 0) {
        auto bad = color;
        bad[v] = color[g.neighbors(v).front()];
        EXPECT_FALSE(verify_coloring_locally(g, bad, palette).accepted);
        break;
      }
    }
    // Out-of-palette color.
    auto bad2 = color;
    bad2[0] = palette + 7;
    EXPECT_FALSE(verify_coloring_locally(g, bad2, palette).accepted);
  }
}

TEST(VerifyEdgeColoring, AcceptsAndRejects) {
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(12, 0.3, rng);
    auto colors = sequential_edge_coloring(g);
    EXPECT_TRUE(verify_edge_coloring_locally(g, colors).accepted);
    // Desynchronize one edge's two sides.
    bool corrupted = false;
    for (NodeId v = 0; v < g.num_nodes() && !corrupted; ++v) {
      if (g.degree(v) > 0) {
        auto bad = colors;
        bad[v][0] = bad[v][0] % (2 * g.max_degree() - 1) + 1;
        if (bad[v][0] == colors[v][0]) bad[v][0] = colors[v][0] + 1;
        EXPECT_FALSE(verify_edge_coloring_locally(g, bad).accepted)
            << "trial " << trial;
        corrupted = true;
      }
    }
  }
}

TEST(Verify, ExhaustiveSoundnessOnSmallGraphs) {
  // For every claimed bit vector on a small graph: verifier accepts iff
  // the vector is a maximal independent set.
  Rng rng(7);
  Graph g = make_gnp(8, 0.35, rng);
  for (int mask = 0; mask < (1 << 8); ++mask) {
    std::vector<Value> claimed(8);
    for (NodeId v = 0; v < 8; ++v) claimed[v] = (mask >> v) & 1;
    bool valid = true;
    for (NodeId v = 0; v < 8 && valid; ++v) {
      if (claimed[v] == 1) {
        for (NodeId u : g.neighbors(v)) {
          if (claimed[u] == 1) valid = false;
        }
      } else {
        bool covered = false;
        for (NodeId u : g.neighbors(v)) covered = covered || claimed[u] == 1;
        valid = covered;
      }
    }
    EXPECT_EQ(verify_mis_locally(g, claimed).accepted, valid)
        << "mask " << mask;
  }
}

}  // namespace
}  // namespace dgap
