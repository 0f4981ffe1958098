#include <gtest/gtest.h>

#include "graph/generators.h"
#include "reachability/chain_cover.h"
#include "reachability/contour.h"
#include "reachability/interval_index.h"
#include "reachability/sspi.h"
#include "reachability/three_hop.h"
#include "reachability/transitive_closure.h"
#include "test_util.h"

namespace gtpq {
namespace {

using testing::SmallDag;

TEST(TransitiveClosureTest, SmallDagPairs) {
  DataGraph g = SmallDag();
  auto tc = TransitiveClosure::Build(g.graph());
  EXPECT_TRUE(tc.Reaches(0, 9));
  EXPECT_TRUE(tc.Reaches(1, 6));
  EXPECT_TRUE(tc.Reaches(2, 9));
  EXPECT_FALSE(tc.Reaches(2, 6));
  EXPECT_FALSE(tc.Reaches(9, 0));
  // Non-empty-path semantics: no node reaches itself in a DAG.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_FALSE(tc.Reaches(v, v)) << "v" << v;
  }
}

TEST(TransitiveClosureTest, CycleSemantics) {
  // 0 -> 1 -> 2 -> 0 cycle plus a tail 2 -> 3 and a self loop at 4.
  DataGraph g = testing::MakeGraph(
      5, {0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 4}});
  auto tc = TransitiveClosure::Build(g.graph());
  EXPECT_TRUE(tc.Reaches(0, 0));  // on a cycle
  EXPECT_TRUE(tc.Reaches(1, 0));
  EXPECT_TRUE(tc.Reaches(0, 3));
  EXPECT_FALSE(tc.Reaches(3, 3));  // not on a cycle
  EXPECT_TRUE(tc.Reaches(4, 4));   // self loop
  EXPECT_FALSE(tc.Reaches(3, 0));
}

TEST(ChainCoverTest, ValidOnSmallDag) {
  DataGraph g = SmallDag();
  auto cover = BuildGreedyChainCover(g.graph());
  EXPECT_TRUE(ValidateChainCover(g.graph(), cover));
  size_t covered = 0;
  for (const auto& chain : cover.chains) covered += chain.size();
  EXPECT_EQ(covered, g.NumNodes());
}

TEST(ChainCoverTest, SingleChainForPath) {
  DataGraph g = testing::MakeGraph(5, {0, 0, 0, 0, 0},
                                   {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto cover = BuildGreedyChainCover(g.graph());
  EXPECT_EQ(cover.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainCover(g.graph(), cover));
}

TEST(ChainCoverTest, ValidOnRandomDags) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomDagOptions opt;
    opt.num_nodes = 200;
    opt.avg_degree = 2.5;
    opt.seed = seed;
    DataGraph g = RandomDag(opt);
    auto cover = BuildGreedyChainCover(g.graph());
    EXPECT_TRUE(ValidateChainCover(g.graph(), cover)) << "seed " << seed;
  }
}

// ---------- Oracle-equivalence sweeps for every index ----------

struct IndexCase {
  size_t nodes;
  double degree;
  bool cyclic;
  uint64_t seed;
};

class IndexEquivalence : public ::testing::TestWithParam<IndexCase> {
 protected:
  DataGraph MakeCaseGraph() const {
    const IndexCase& c = GetParam();
    if (c.cyclic) {
      RandomDigraphOptions o;
      o.num_nodes = c.nodes;
      o.avg_degree = c.degree;
      o.seed = c.seed;
      return RandomDigraph(o);
    }
    RandomDagOptions o;
    o.num_nodes = c.nodes;
    o.avg_degree = c.degree;
    o.seed = c.seed;
    return RandomDag(o);
  }
};

TEST_P(IndexEquivalence, ThreeHopMatchesClosure) {
  DataGraph g = MakeCaseGraph();
  auto tc = TransitiveClosure::Build(g.graph());
  auto idx = ThreeHopIndex::Build(g.graph());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(idx.Reaches(u, v), tc.Reaches(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(IndexEquivalence, IntervalMatchesClosure) {
  DataGraph g = MakeCaseGraph();
  auto tc = TransitiveClosure::Build(g.graph());
  auto idx = IntervalIndex::Build(g.graph());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(idx.Reaches(u, v), tc.Reaches(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(IndexEquivalence, SspiMatchesClosure) {
  DataGraph g = MakeCaseGraph();
  auto tc = TransitiveClosure::Build(g.graph());
  auto idx = Sspi::Build(g.graph());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(idx.Reaches(u, v), tc.Reaches(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(IndexEquivalence, ContoursMatchSetReachability) {
  DataGraph g = MakeCaseGraph();
  auto tc = TransitiveClosure::Build(g.graph());
  auto idx = ThreeHopIndex::Build(g.graph());
  Rng rng(GetParam().seed * 977 + 3);
  for (int round = 0; round < 12; ++round) {
    const size_t k = 1 + rng.NextBounded(5);
    std::vector<NodeId> members;
    for (size_t i = 0; i < k; ++i) {
      members.push_back(static_cast<NodeId>(rng.NextBounded(g.NumNodes())));
    }
    Contour cp = MergePredLists(idx, members);
    Contour cs = MergeSuccLists(idx, members);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      bool expect_to = false, expect_from = false;
      for (NodeId w : members) {
        expect_to |= tc.Reaches(v, w);
        expect_from |= tc.Reaches(w, v);
      }
      ASSERT_EQ(NodeReachesContour(idx, v, cp), expect_to)
          << "v=" << v << " round=" << round;
      ASSERT_EQ(ContourReachesNode(idx, cs, v), expect_from)
          << "v=" << v << " round=" << round;
    }
  }
}

// Answers one successor scan both ways — the matching-graph path
// (PrepareSuccessorTargets + SuccessorsAmong) and the upward-prune path
// (SummarizeSources({from}) + SetReachesBatch) — checks both against the
// closure and requires equal #index for the two. Returns how many of
// `targets` share a chain with an earlier target.
size_t CheckSuccessorScan(const ContourIndex& idx,
                          const TransitiveClosure& tc, NodeId from,
                          const std::vector<NodeId>& targets) {
  IndexStats& st = idx.stats();
  st = IndexStats{};
  const NodeId one[1] = {from};
  std::vector<char> reached;
  idx.SetReachesBatch(*idx.SummarizeSources(one), targets, &reached);
  const uint64_t batch_lookups = st.elements_looked_up;

  st = IndexStats{};
  std::vector<uint32_t> among{7};  // SuccessorsAmong appends
  idx.SuccessorsAmong(from, *idx.PrepareSuccessorTargets(targets), &among);
  EXPECT_EQ(st.elements_looked_up, batch_lookups) << "from=" << from;

  std::vector<uint32_t> expect{7};
  for (uint32_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(reached[i] != 0, tc.Reaches(from, targets[i]))
        << "from=" << from << " to=" << targets[i];
    if (tc.Reaches(from, targets[i])) expect.push_back(i);
  }
  EXPECT_EQ(among, expect) << "from=" << from;

  std::vector<char> chain_seen(idx.NumChains(), 0);
  size_t shared = 0;
  for (NodeId t : targets) {
    char& seen = chain_seen[idx.PosOf(t).cid];
    shared += seen;
    seen = 1;
  }
  return shared;
}

TEST_P(IndexEquivalence, SuccessorScanMatchesUpwardBatch) {
  DataGraph g = MakeCaseGraph();
  auto tc = TransitiveClosure::Build(g.graph());
  auto idx = ContourIndex::Build(g.graph());
  Rng rng(GetParam().seed * 131 + 7);
  size_t shared = 0;
  for (int round = 0; round < 6; ++round) {
    // Dense target sets, so chains hold several targets each.
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng.NextBounded(3) != 0) targets.push_back(v);
    }
    for (NodeId from = 0; from < g.NumNodes(); ++from) {
      shared += CheckSuccessorScan(idx, tc, from, targets);
    }
  }
  EXPECT_GT(shared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexEquivalence,
    ::testing::Values(
        IndexCase{30, 1.0, false, 1}, IndexCase{30, 2.0, false, 2},
        IndexCase{60, 1.5, false, 3}, IndexCase{60, 3.0, false, 4},
        IndexCase{120, 2.0, false, 5}, IndexCase{120, 4.0, false, 6},
        IndexCase{40, 1.5, true, 7}, IndexCase{40, 2.5, true, 8},
        IndexCase{80, 2.0, true, 9}, IndexCase{80, 3.5, true, 10},
        IndexCase{25, 0.5, false, 11}, IndexCase{25, 0.5, true, 12}));

TEST(ThreeHopTest, ChainReachabilityWithinChain) {
  // A pure path: one chain; sid ordering answers everything.
  DataGraph g = testing::MakeGraph(6, {0, 0, 0, 0, 0, 0},
                                   {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  auto idx = ThreeHopIndex::Build(g.graph());
  EXPECT_EQ(idx.NumChains(), 1u);
  EXPECT_EQ(idx.TotalLoutSize(), 0u);
  EXPECT_EQ(idx.TotalLinSize(), 0u);
  EXPECT_TRUE(idx.Reaches(0, 5));
  EXPECT_FALSE(idx.Reaches(5, 0));
  EXPECT_FALSE(idx.Reaches(3, 3));
}

TEST(ThreeHopTest, EmptyGraph) {
  Digraph g;
  g.Finalize();
  auto idx = ThreeHopIndex::Build(g);
  EXPECT_EQ(idx.NumChains(), 0u);
}

TEST(ThreeHopTest, IndexSizeSmallerThanClosure) {
  RandomDagOptions o;
  o.num_nodes = 400;
  o.avg_degree = 2.0;
  o.seed = 99;
  DataGraph g = RandomDag(o);
  auto idx = ThreeHopIndex::Build(g.graph());
  // The 3-hop lists must be far below the quadratic closure size.
  EXPECT_LT(idx.TotalLoutSize() + idx.TotalLinSize(),
            g.NumNodes() * g.NumNodes() / 8);
}

TEST(ContourTest, SelfMembershipCornerCases) {
  // v in S must not make v "reach" S through the zero-length path.
  DataGraph g = testing::MakeGraph(3, {0, 0, 0}, {{0, 1}, {1, 2}});
  auto idx = ThreeHopIndex::Build(g.graph());
  std::vector<NodeId> members{1};
  Contour cp = MergePredLists(idx, members);
  EXPECT_TRUE(NodeReachesContour(idx, 0, cp));
  EXPECT_FALSE(NodeReachesContour(idx, 1, cp));  // zero-length path
  EXPECT_FALSE(NodeReachesContour(idx, 2, cp));

  // With a cycle through the member, the self probe becomes genuine.
  DataGraph c = testing::MakeGraph(3, {0, 0, 0}, {{0, 1}, {1, 0}, {1, 2}});
  auto cidx = ThreeHopIndex::Build(c.graph());
  Contour ccp = MergePredLists(cidx, members);
  EXPECT_TRUE(NodeReachesContour(cidx, 1, ccp));
}

TEST(ContourTest, EmptyMemberSet) {
  DataGraph g = SmallDag();
  auto idx = ThreeHopIndex::Build(g.graph());
  Contour cp = MergePredLists(idx, {});
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_FALSE(NodeReachesContour(idx, v, cp));
  }
}

TEST(ContourTest, SuccessorScanFloorAcrossOneScc) {
  // 0 -> {1, 2, 3} (one SCC) -> 4, plus 5 -> 4: the SCC's data nodes sit
  // at one chain position, so after the first of them the floor walk has
  // nothing new to read and only their self probes differ.
  DataGraph g = testing::MakeGraph(
      6, {0, 0, 0, 0, 0, 0},
      {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {5, 4}});
  auto tc = TransitiveClosure::Build(g.graph());
  auto idx = ContourIndex::Build(g.graph());
  ASSERT_EQ(idx.CondOf(1), idx.CondOf(3));
  const std::vector<NodeId> targets{4, 3, 1, 2, 0, 5};
  size_t shared = 0;
  for (NodeId from = 0; from < g.NumNodes(); ++from) {
    shared += CheckSuccessorScan(idx, tc, from, targets);
  }
  EXPECT_GT(shared, 0u);
}

TEST(ContourTest, FindOutsideTheContour) {
  EXPECT_EQ(Contour().Find(0), nullptr);
  EXPECT_TRUE(Contour().empty());

  DataGraph g = SmallDag();
  auto idx = ThreeHopIndex::Build(g.graph());
  const std::vector<NodeId> members{3};
  Contour cp = MergePredLists(idx, members);
  const auto cid = static_cast<uint32_t>(idx.NumChains());
  EXPECT_NE(cp.Find(idx.PosOf(3).cid), nullptr);
  EXPECT_EQ(cp.Find(cid), nullptr);
  EXPECT_EQ(cp.Find(UINT32_MAX), nullptr);
}

TEST(SspiTest, IndexSizeIsSurplusEdges) {
  DataGraph g = SmallDag();
  auto idx = Sspi::Build(g.graph());
  // 10 edges, 9 tree edges (every node but the root has a parent).
  EXPECT_EQ(idx.TotalSurplus(), g.NumEdges() - (g.NumNodes() - 1));
}

TEST(IntervalIndexTest, PostOrderIsPermutation) {
  DataGraph g = SmallDag();
  auto idx = IntervalIndex::Build(g.graph());
  std::vector<char> seen(g.NumNodes(), 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint32_t p = idx.PostOf(v);
    ASSERT_LT(p, g.NumNodes());
    EXPECT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

}  // namespace
}  // namespace gtpq
