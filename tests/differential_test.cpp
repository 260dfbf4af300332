// Scenario-driven differential testing: one recorded trace, every
// registered detector (the ROADMAP follow-up from PR 3).
//
// The paper's structures maintain *different* edge sets by design -- T^{v,2}
// for triangles, R^{v,2} / S~_v for the robust neighborhoods, E^{v,2} for
// Lemma 1, flooded knowledge for the baseline -- so a differential oracle
// must compare them where their contracts overlap:
//
//   * incident edges: every detector, when consistent, answers incident
//     EdgeQuerys exactly (its own links are the one thing every structure
//     tracks precisely).  Replaying one trace through the whole registry
//     must therefore produce identical incident-edge answer matrices on
//     consistent rounds -- and they must equal the ground-truth adjacency.
//   * triangle membership: TriangleNode (Thm 1, robust subset) and
//     FullTwoHopNode (Lemma 1, the whole 2-hop neighborhood) both answer
//     triangle-membership queries exactly when consistent, via completely
//     different mechanisms and costs.  Their answers must agree on every
//     candidate, every time both are settled.
//   * containment: S_v of the triangle structure contains every edge of
//     R^{v,2} (pattern (a) subsumes the robust filter), so an edge
//     robust2hop lists must answer kTrue on the triangle surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"
#include "scenario/registry.hpp"

namespace dynsub {
namespace {

constexpr std::size_t kNodes = 16;

/// Records the event trace of a registry scenario (driven against the
/// triangle structure -- the adversary is oblivious to the detector) and
/// round-trips it through the text trace format, exactly as dynsub_run
/// --record / --replay would.
std::vector<std::vector<EdgeEvent>> recorded_trace() {
  auto built = scenario::build_scenario(
      "churn(n=16, target=28, max=4, delfrac=0.45, rounds=70, seed=29)",
      scenario::ScenarioOptions{}, nullptr);
  EXPECT_TRUE(built.has_value());
  net::RecordingWorkload recorder(*built->workload);
  net::Simulator sim(kNodes, detect::build_detector("triangle")->factory());
  net::run_workload(sim, recorder, 100000);

  std::ostringstream os;
  net::write_trace(os, recorder.rounds());
  std::istringstream is(os.str());
  std::string error;
  const auto trace = net::read_trace(is, &error);
  EXPECT_TRUE(trace.has_value()) << error;
  return trace->rounds;
}

/// A manual session sized for the trace: the tests step the batches
/// themselves (they need per-round control to probe consistent rounds).
detect::Session replay_session(const std::string& detector) {
  detect::SessionOptions opts;
  opts.detector = detector;
  opts.n = kNodes;
  std::string error;
  auto session = detect::Session::open(std::move(opts), &error);
  if (!session.has_value()) {
    ADD_FAILURE() << detector << ": " << error;
    std::abort();
  }
  return std::move(*session);
}

/// All incident-edge answers of one session: for every node v and every
/// other node u, v's answer to EdgeQuery{{v, u}}.
std::vector<net::Answer> incident_answers(const detect::Session& s) {
  std::vector<net::Answer> out;
  out.reserve(kNodes * (kNodes - 1));
  for (NodeId v = 0; v < kNodes; ++v) {
    for (NodeId u = 0; u < kNodes; ++u) {
      if (u == v) continue;
      out.push_back(s.query(v, detect::EdgeQuery{Edge(v, u)}));
    }
  }
  return out;
}

TEST(DifferentialTest, WholeRegistryAgreesOnIncidentEdgesOverOneTrace) {
  const auto trace = recorded_trace();

  // Ground truth per round, computed once: an (ordered) adjacency matrix
  // snapshot after each batch.
  std::vector<std::vector<net::Answer>> final_matrices;
  std::vector<std::string> names;

  for (const auto& entry : detect::detector_catalog()) {
    SCOPED_TRACE(entry.example);
    auto s = replay_session(entry.example);
    for (const auto& batch : trace) {
      s.step(batch);
      if (!s.settled()) continue;
      // On a consistent round, incident answers must equal the live
      // adjacency -- three-valued answers collapse to exact truth.
      const auto answers = incident_answers(s);
      std::size_t i = 0;
      for (NodeId v = 0; v < kNodes; ++v) {
        for (NodeId u = 0; u < kNodes; ++u) {
          if (u == v) continue;
          const bool present = s.sim().graph().has_edge(Edge(v, u));
          ASSERT_EQ(answers[i],
                    present ? net::Answer::kTrue : net::Answer::kFalse)
              << "round " << s.sim().round() << " node " << v << " edge {"
              << v << "," << u << "}";
          ++i;
        }
      }
    }
    s.run_until_stable(5000);
    ASSERT_TRUE(s.settled());
    final_matrices.push_back(incident_answers(s));
    names.push_back(entry.example);
  }

  // Identical final edge-query answers across the whole registry.
  for (std::size_t i = 1; i < final_matrices.size(); ++i) {
    EXPECT_EQ(final_matrices[i], final_matrices[0])
        << names[i] << " disagrees with " << names[0];
  }
}

TEST(DifferentialTest, TriangleAndFull2HopAgreeOnTriangleMembership) {
  const auto trace = recorded_trace();
  auto tri = replay_session("triangle");
  auto full = replay_session("full2hop");

  std::size_t compared_rounds = 0;
  auto compare_all_candidates = [&] {
    for (NodeId v = 0; v < kNodes; ++v) {
      for (NodeId u = 0; u < kNodes; ++u) {
        for (NodeId w = u + 1; w < kNodes; ++w) {
          if (u == v || w == v) continue;
          const detect::Query q = detect::TriangleQuery{u, w};
          const net::Answer a = tri.query(v, q);
          const net::Answer b = full.query(v, q);
          ASSERT_EQ(a, b) << "triangle {" << v << "," << u << "," << w
                          << "} at node " << v;
          // Cross-check against the centralized graph.
          const auto& g = tri.sim().graph();
          const bool truth = g.has_edge(Edge(v, u)) &&
                             g.has_edge(Edge(v, w)) && g.has_edge(Edge(u, w));
          ASSERT_EQ(a, truth ? net::Answer::kTrue : net::Answer::kFalse);
        }
      }
    }
    ++compared_rounds;
  };

  for (const auto& batch : trace) {
    tri.step(batch);
    full.step(batch);
    // Compare whenever both structures are simultaneously settled (they
    // converge at different speeds; the contract only binds consistent
    // nodes).
    if (tri.settled() && full.settled()) compare_all_candidates();
  }
  tri.run_until_stable(5000);
  full.run_until_stable(5000);
  ASSERT_TRUE(tri.settled() && full.settled());
  compare_all_candidates();
  // Mid-trace comparisons are opportunistic (the two structures converge
  // at different speeds); the post-drain comparison always runs, so the
  // test can never silently become vacuous.
  EXPECT_GE(compared_rounds, 1u);
}

TEST(DifferentialTest, TriangleMaintainedSetContainsRobust2Hop) {
  const auto trace = recorded_trace();
  auto tri = replay_session("triangle");
  auto r2h = replay_session("robust2hop");

  for (const auto& batch : trace) {
    tri.step(batch);
    r2h.step(batch);
  }
  tri.run_until_stable(5000);
  r2h.run_until_stable(5000);
  ASSERT_TRUE(tri.settled() && r2h.settled());

  for (NodeId v = 0; v < kNodes; ++v) {
    const auto robust = r2h.list(v, detect::QueryKind::kEdge);
    ASSERT_TRUE(robust.has_value());
    for (const auto& tuple : *robust) {
      EXPECT_EQ(tri.query(v, detect::EdgeQuery{Edge(tuple[0], tuple[1])}),
                net::Answer::kTrue)
          << "node " << v << " edge {" << tuple[0] << "," << tuple[1]
          << "}: T^{v,2} must contain R^{v,2}";
    }
  }
}

TEST(DifferentialTest, CliqueListingsConfirmedByFull2HopQueries) {
  // Every 4-clique the triangle structure lists must answer kTrue on the
  // Lemma 1 structure's independent clique-query surface.
  auto built = scenario::build_scenario(
      "planted-clique(n=16, k=4, plants=2, noise=1, rounds=50, seed=13)",
      scenario::ScenarioOptions{}, nullptr);
  ASSERT_TRUE(built.has_value());
  net::RecordingWorkload recorder(*built->workload);
  net::Simulator scratch(kNodes,
                         detect::build_detector("triangle")->factory());
  net::run_workload(scratch, recorder, 100000);

  auto tri = replay_session("triangle(k=4)");
  auto full = replay_session("full2hop");
  for (const auto& batch : recorder.rounds()) {
    tri.step(batch);
    full.step(batch);
  }
  // The planted workload may end mid-churn with its cliques dismantled;
  // complete a K4 on {0,1,2,3} so there is always something to confirm.
  std::vector<EdgeEvent> complete_k4;
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) {
      if (!tri.sim().graph().has_edge(Edge(a, b))) {
        complete_k4.push_back(EdgeEvent::insert(a, b));
      }
    }
  }
  tri.step(complete_k4);
  full.step(complete_k4);
  tri.run_until_stable(5000);
  full.run_until_stable(5000);
  ASSERT_TRUE(tri.settled() && full.settled());

  std::size_t confirmed = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    const auto cliques = tri.list(v, detect::QueryKind::kClique);
    ASSERT_TRUE(cliques.has_value());
    for (const auto& members : *cliques) {
      std::vector<NodeId> others;
      for (const NodeId m : members) {
        if (m != v) others.push_back(m);
      }
      EXPECT_EQ(full.query(v, detect::CliqueQuery{others}),
                net::Answer::kTrue);
      ++confirmed;
    }
  }
  // The planted workload guarantees cliques exist to confirm.
  EXPECT_GT(confirmed, 0u);
}

}  // namespace
}  // namespace dynsub
