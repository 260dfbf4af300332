// Tests for trace recording / replay, plus the Remark 2 pattern-membership
// query layer on the Lemma 1 structure.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string_view>

#include "baseline/full2hop.hpp"
#include "core/audit.hpp"
#include "core/triangle.hpp"
#include "dynamics/lb_membership.hpp"
#include "dynamics/random_churn.hpp"
#include "net/simulator.hpp"
#include "common/rng.hpp"
#include "net/trace.hpp"
#include "sim_test_util.hpp"

namespace dynsub {
namespace {

using testing::factory_of;

// ---------------------------------------------------------------- trace ----

TEST(TraceTest, RoundTripPreservesEveryRound) {
  std::vector<std::vector<EdgeEvent>> rounds{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(2, 3)},
      {},
      {EdgeEvent::remove(0, 1)},
      {},
  };
  std::ostringstream os;
  net::write_trace(os, rounds);
  std::istringstream is(os.str());
  const auto back = net::read_trace(is);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rounds, rounds);
  EXPECT_EQ(back->n, 0u);
}

TEST(TraceTest, ParsesCommentsAndEmptyRounds) {
  std::istringstream is("# header\n+0:1 +1:2\n\n-0:1\n");
  const auto trace = net::read_trace(is);
  ASSERT_TRUE(trace.has_value());
  const auto& rounds = trace->rounds;
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].size(), 2u);
  EXPECT_TRUE(rounds[1].empty());
  EXPECT_EQ(rounds[2][0].kind, EventKind::kDelete);
}

TEST(TraceTest, RejectsMalformedInput) {
  std::string error;
  for (const char* bad :
       {"*0:1\n", "+01\n", "+0:\n", "+:1\n", "+3:3\n", "+0:1x\n",
        // signs and hex smuggled past a naive stoul-based parser:
        "+-1:2\n", "+1:-2\n", "+1:+2\n", "+0x1:2\n",
        // out-of-range node ids (NodeId is 32-bit):
        "+0:4294967296\n", "+18446744073709551616:1\n",
        "+99999999999999999999:1\n"}) {
    std::istringstream is(bad);
    EXPECT_FALSE(net::read_trace(is, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(TraceTest, AcceptsMaxNodeIdAndErrorsNameTheLine) {
  {
    std::istringstream is("+0:4294967295\n");
    const auto trace = net::read_trace(is);
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->rounds[0][0].edge.hi(), 4294967295u);
  }
  {
    // The failing line number (1-based, comments counted) is in the error.
    std::istringstream is("+0:1\n# comment\n\n+9:9\n");
    std::string error;
    EXPECT_FALSE(net::read_trace(is, &error).has_value());
    EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  }
}

TEST(TraceTest, HeaderRoundTripsThroughWriteThenRead) {
  const std::vector<std::vector<EdgeEvent>> rounds{
      {EdgeEvent::insert(0, 1), EdgeEvent::insert(2, 3)}, {}};
  std::ostringstream os;
  net::write_trace(os, rounds, 7, "dynsub_run trace of: churn(n=7)");
  EXPECT_EQ(os.str(),
            "# dynsub_run trace of: churn(n=7)\n# n=7\n+0:1 +2:3\n\n");
  std::istringstream is(os.str());
  std::string error;
  const auto back = net::read_trace(is, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->n, 7u);
  EXPECT_EQ(back->nodes(), 7u);  // the header, not the largest id + 1
  EXPECT_EQ(back->rounds, rounds);
}

TEST(TraceTest, RefusesBadHeaders) {
  struct Case {
    const char* text;
    const char* want;  // substring of the error
  };
  for (const Case& c : {
           Case{"# n=banana\n+0:1\n", "corrupt trace header '# n=banana'"},
           Case{"# n=0\n+0:1\n", "corrupt trace header '# n=0'"},
           Case{"# n=-3\n", "corrupt trace header"},
           // A header smaller than the largest event id: a replay sized by
           // it would index past the network.
           Case{"# n=2\n+0:1\n\n+1:5\n", "line 4"},
           Case{"# n=2\n+0:1\n\n+1:5\n", "header says n=2"},
       }) {
    std::istringstream is(c.text);
    std::string error;
    EXPECT_FALSE(net::read_trace(is, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.want), std::string::npos) << c.text << error;
  }
  // Only the leading comment block holds the header; the same comment
  // after the first round line is an ordinary comment.
  std::istringstream late("+0:1\n# n=banana\n");
  const auto trace = net::read_trace(late);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->n, 0u);
  EXPECT_EQ(trace->nodes(), 2u);  // headerless: largest id + 1
}

TEST(TraceTest, FuzzRoundTripRandomBatches) {
  // Property: write_trace followed by read_trace is the identity on any
  // vector of event batches (including empty rounds, duplicate edges in a
  // batch, and ids spanning the whole 32-bit range).
  Rng rng(0xF00D5EED);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t n_rounds = rng.next_below(12);
    std::vector<std::vector<EdgeEvent>> rounds(n_rounds);
    for (auto& batch : rounds) {
      const std::size_t m = rng.next_below(8);
      for (std::size_t i = 0; i < m; ++i) {
        const bool huge = rng.next_bool(0.1);
        const std::uint64_t bound = huge ? 0xFFFFFFFFull : 1000ull;
        const NodeId a = static_cast<NodeId>(rng.next_below(bound));
        NodeId b = static_cast<NodeId>(rng.next_below(bound));
        while (b == a) b = static_cast<NodeId>(rng.next_below(bound) + 1);
        batch.push_back({Edge(a, b), rng.next_bool(0.5)
                                         ? EventKind::kInsert
                                         : EventKind::kDelete});
      }
    }
    std::ostringstream os;
    net::write_trace(os, rounds);
    std::istringstream is(os.str());
    std::string error;
    const auto back = net::read_trace(is, &error);
    ASSERT_TRUE(back.has_value()) << "iter " << iter << ": " << error;
    EXPECT_EQ(back->rounds, rounds) << "iter " << iter;
  }
}

TEST(TraceTest, FuzzMutatedTracesNeverCrashTheParser) {
  // Corrupt a valid trace one character at a time: the parser must either
  // accept (some mutations stay well-formed) or fail cleanly with a
  // message -- never crash or hang.
  const std::string good = "+0:1 +2:3\n\n-0:1 +1:4\n+3:4\n";
  Rng rng(0xBADF00D);
  const std::string_view alphabet = "+-0123456789: #x\n";
  for (int iter = 0; iter < 300; ++iter) {
    const std::string mutated =
        testing::mutate_one_char(rng, good, alphabet);
    std::istringstream is(mutated);
    std::string error;
    const auto result = net::read_trace(is, &error);
    if (!result.has_value()) {
      EXPECT_FALSE(error.empty()) << "mutation '" << mutated << "'";
    }
  }
}

TEST(TraceTest, RecordedAdaptiveAdversaryReplaysIdentically) {
  // Record the (adaptive) Theorem 2 adversary against the triangle
  // structure, then replay the trace against a fresh simulator: the
  // metrics must match exactly.
  dynamics::MembershipLbParams mp;
  mp.pattern = dynamics::pattern_diamond();
  mp.t = 6;
  dynamics::MembershipLbAdversary adversary(mp);
  net::RecordingWorkload recorder(adversary);

  net::Simulator live(adversary.nodes_required(),
                      factory_of<core::TriangleNode>());
  net::run_workload(live, recorder, 100000);

  // Round-trip the trace through the text format.
  std::ostringstream os;
  net::write_trace(os, recorder.rounds());
  std::istringstream is(os.str());
  const auto trace = net::read_trace(is);
  ASSERT_TRUE(trace.has_value());

  net::Simulator replayed(adversary.nodes_required(),
                          factory_of<core::TriangleNode>());
  net::ScriptedWorkload script(trace->rounds);
  net::run_workload(replayed, script, 100000);

  EXPECT_EQ(live.metrics().changes(), replayed.metrics().changes());
  EXPECT_EQ(live.metrics().inconsistent_rounds(),
            replayed.metrics().inconsistent_rounds());
  EXPECT_EQ(live.metrics().messages(), replayed.metrics().messages());
  EXPECT_EQ(live.graph().edges(), replayed.graph().edges());
}

TEST(TraceTest, RecorderCapturesRandomChurnExactly) {
  dynamics::RandomChurnParams cp;
  cp.n = 10;
  cp.target_edges = 15;
  cp.max_changes = 4;
  cp.rounds = 40;
  cp.seed = 17;
  dynamics::RandomChurnWorkload wl(cp);
  net::RecordingWorkload recorder(wl);
  net::Simulator sim(cp.n, factory_of<core::TriangleNode>());
  net::run_workload(sim, recorder, 100000);
  std::size_t total = 0;
  for (const auto& r : recorder.rounds()) total += r.size();
  EXPECT_EQ(total, sim.metrics().changes());
}

// ----------------------------------------------- Remark 2 pattern query ----

/// Builds a stable graph and returns a simulator of FullTwoHopNodes
/// (heap-allocated: Simulator is pinned by the parallel engine's tasks).
std::unique_ptr<net::Simulator> stable_graph(
    std::size_t n, std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  auto sim = std::make_unique<net::Simulator>(
      n, factory_of<baseline::FullTwoHopNode>());
  std::vector<EdgeEvent> batch;
  for (const auto& [a, b] : edges) batch.push_back(EdgeEvent::insert(a, b));
  sim->step(batch);
  sim->run_until_stable(100000);
  return sim;
}

TEST(PatternQueryTest, DiamondMembership) {
  // Diamond on {0,1,2,3}: all edges but {0,1}.
  auto sim = stable_graph(
      6, {{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  const auto& node =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(0));
  const auto pat = dynamics::pattern_diamond();
  const NodeId verts[] = {0, 1, 2, 3};  // a=0, b=1, core 2,3
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kTrue);
  // Adding the {a,b} edge breaks *induced* membership.
  sim->step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  sim->run_until_stable(100000);
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kFalse);
}

TEST(PatternQueryTest, P3MembershipFromEveryVertex) {
  auto sim = stable_graph(5, {{0, 2}, {2, 1}});
  const auto pat = dynamics::pattern_p3();  // a=0, b=1, middle=2
  const NodeId verts[] = {0, 1, 2};
  for (NodeId v : {0u, 1u, 2u}) {
    const auto& node =
        dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(v));
    EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kTrue)
        << "v=" << v;
  }
  // A non-member cannot claim membership (vertices must contain self).
  const auto& node0 =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(0));
  const NodeId wrong[] = {0, 1, 3};  // 3 is not the middle
  EXPECT_EQ(node0.query_pattern(wrong, pat.edges), net::Answer::kFalse);
}

TEST(PatternQueryTest, C4MembershipAndRotation) {
  auto sim = stable_graph(6, {{0, 2}, {2, 1}, {1, 3}, {3, 0}});
  const auto pat = dynamics::pattern_c4();  // 0-2-1-3-0
  const NodeId verts[] = {0, 1, 2, 3};
  const auto& node =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim->node(0));
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kTrue);
  // Break one cycle edge: membership gone.
  sim->step(std::vector<EdgeEvent>{EdgeEvent::remove(1, 3)});
  sim->run_until_stable(100000);
  EXPECT_EQ(node.query_pattern(verts, pat.edges), net::Answer::kFalse);
}

TEST(PatternQueryTest, InconsistentWhileUpdating) {
  net::Simulator sim(4, factory_of<baseline::FullTwoHopNode>());
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 2)});
  const auto& node =
      dynamic_cast<const baseline::FullTwoHopNode&>(sim.node(0));
  const auto pat = dynamics::pattern_p3();
  const NodeId verts[] = {0, 1, 2};
  EXPECT_EQ(node.query_pattern(verts, pat.edges),
            net::Answer::kInconsistent);
}

}  // namespace
}  // namespace dynsub
