// Shared helpers for the dynsub test suite.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"

namespace dynsub::testing {

/// NodeFactory for a node type constructible as NodeT(self, n, extra...).
template <typename NodeT, typename... Extra>
net::NodeFactory factory_of(Extra... extra) {
  return [extra...](NodeId v, std::size_t n) {
    return std::make_unique<NodeT>(v, n, extra...);
  };
}

/// Every deterministic counter two equivalent runs must agree on (the
/// transport counters excepted: only a chaos run accrues them).
inline void expect_metrics_equal(const net::Metrics& a,
                                 const net::Metrics& b) {
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.changes(), b.changes());
  EXPECT_EQ(a.inconsistent_rounds(), b.inconsistent_rounds());
  EXPECT_EQ(a.messages(), b.messages());
  EXPECT_EQ(a.payload_bits(), b.payload_bits());
  EXPECT_EQ(a.sum_inconsistent_nodes(), b.sum_inconsistent_nodes());
  EXPECT_DOUBLE_EQ(a.amortized(), b.amortized());
  EXPECT_DOUBLE_EQ(a.amortized_sup(), b.amortized_sup());
  EXPECT_DOUBLE_EQ(a.per_node_amortized_sup(), b.per_node_amortized_sup());
  EXPECT_EQ(a.node_inconsistent(), b.node_inconsistent());
  EXPECT_EQ(a.node_changes(), b.node_changes());
}

/// State extractor for the equivalence suites: node v's known edge set,
/// for any node type exposing known_edges().
template <typename NodeT>
auto known_edges_of() {
  return [](const net::Simulator& sim, NodeId v) {
    return dynamic_cast<const NodeT&>(sim.node(v)).known_edges();
  };
}

using RoundAudit = std::function<std::optional<std::string>(
    const net::Simulator&)>;

/// Drives sim with the workload, invoking `audit` after every round and
/// failing the test on the first violation.  Returns rounds executed.
inline std::size_t run_audited(net::Simulator& sim, net::Workload& workload,
                               std::size_t max_rounds,
                               const RoundAudit& audit) {
  std::size_t rounds = 0;
  while (rounds < max_rounds &&
         !(workload.finished() && sim.all_consistent())) {
    net::WorkloadObservation obs{sim.graph(), sim.round() + 1,
                                 sim.all_consistent()};
    auto events = workload.finished() ? std::vector<EdgeEvent>{}
                                      : workload.next_round(obs);
    sim.step(events);
    ++rounds;
    if (audit) {
      auto err = audit(sim);
      if (err.has_value()) {
        ADD_FAILURE() << *err;
        return rounds;
      }
    }
  }
  EXPECT_TRUE(sim.all_consistent())
      << "network failed to stabilize within " << max_rounds << " rounds";
  return rounds;
}

/// Replays a fixed script with a per-round audit.
inline std::size_t run_script_audited(
    net::Simulator& sim, std::vector<std::vector<EdgeEvent>> script,
    std::size_t extra_drain, const RoundAudit& audit) {
  net::ScriptedWorkload wl(std::move(script));
  return run_audited(sim, wl, 100000 + extra_drain, audit);
}

/// One single-character corruption of `text`, drawn from `alphabet` -- the
/// mutation step of the PR 3 trace-fuzz harness, shared so the spec-grammar
/// fuzzers (scenario and detector) corrupt input the same way.
template <typename RngT>
std::string mutate_one_char(RngT& rng, std::string text,
                            std::string_view alphabet) {
  if (text.empty()) return text;
  const auto pos = rng.next_below(text.size());
  text[pos] = alphabet[rng.next_below(alphabet.size())];
  return text;
}

}  // namespace dynsub::testing
