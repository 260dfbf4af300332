// EXP-SRV -- the serve layer under load: round-to-answer latency and
// sustained throughput of the query daemon over live churn.
//
// Two client shapes, the classic load-generator pair:
//
//   * closed loop -- one scripted query per round against churn(n=N),
//     sweeping N.  Exactly one request is in flight at a time: it arrives
//     at a round barrier and is answered at the next, so its latency is
//     one engine round of wall time plus queue handling.  This is the
//     clean per-query cost curve, and the source of the gated
//     queries_per_sec / answer_p50_ns / answer_p99_ns metrics.
//
//   * open loop -- a client thread floods the threaded Server as fast as
//     it can submit while the engine runs the flash-crowd composite.
//     Arrival rate is decoupled from service rate, so this measures the
//     saturated regime: sustained answers/sec through the bounded queue
//     and the shed fraction the backpressure policy produces.
//
// The latency percentiles come from serve's Log2Histogram (<= 2x relative
// error); the perf_baseline.json "serve" section bounds them with
// {"max"} ceilings (latency is smaller-is-better) and floors the closed-
// loop throughput.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "detect/session.hpp"
#include "serve/clock.hpp"
#include "serve/loop.hpp"
#include "serve/server.hpp"

namespace dynsub {
namespace {

detect::Session open_session_or_die(const std::string& scenario,
                                    bool quick) {
  detect::SessionOptions sopts;
  sopts.detector = "triangle";
  sopts.scenario = scenario;
  sopts.quick = quick;
  sopts.sim = {.enforce_bandwidth = true,
               .track_prev_graph = false,
               .sparse_rounds = true,
               .threads = 0,
               .faults = {}};
  std::string error;
  auto session = detect::Session::open(std::move(sopts), &error);
  if (!session) {
    std::fprintf(stderr, "bench_serve: bad scenario '%s': %s\n",
                 scenario.c_str(), error.c_str());
    std::exit(1);
  }
  return std::move(*session);
}

/// One query per round, alternating edge- and triangle-shaped, walking
/// the id space so the load spreads over nodes.
serve::RequestScript make_script(std::size_t n, std::size_t rounds) {
  serve::RequestScript script;
  script.entries.reserve(rounds);
  for (std::size_t r = 1; r <= rounds; ++r) {
    serve::ScriptedRequest e;
    e.round = static_cast<Round>(r);
    e.request.kind = serve::RequestKind::kQuery;
    const auto a = static_cast<NodeId>(r % n);
    const auto b = static_cast<NodeId>((r + 1) % n);
    const auto c = static_cast<NodeId>((r + 2) % n);
    e.request.node = a;
    if (r % 2 == 0) {
      e.request.query = detect::EdgeQuery{Edge{a, b}};
    } else {
      e.request.query = detect::TriangleQuery{b, c};
    }
    script.entries.push_back(e);
  }
  return script;
}

serve::ServeStats closed_loop(std::size_t n, std::size_t rounds) {
  detect::Session session = open_session_or_die(
      "churn(n=" + std::to_string(n) + ", rounds=" + std::to_string(rounds) +
          ", seed=" + std::to_string(0x5E27 + n) + ")",
      /*quick=*/false);
  serve::WallClock clock;
  serve::ServeConfig cfg;
  cfg.queue.capacity = 64;
  cfg.queue.policy = serve::OverflowPolicy::kShed;
  serve::ServeLoop loop(session, clock, cfg);
  const serve::RequestScript script = make_script(n, rounds);
  loop.run(script, [](const serve::Response&) {});
  return loop.stats();
}

struct OpenLoopResult {
  serve::ServeStats stats;
  double shed_fraction = 0.0;
};

OpenLoopResult open_loop(bool quick, std::size_t requests) {
  detect::Session session = open_session_or_die("flash-crowd", quick);
  const std::size_t n = session.nodes();
  serve::WallClock clock;
  serve::ServeConfig cfg;
  cfg.queue.capacity = 256;
  cfg.queue.policy = serve::OverflowPolicy::kShed;
  serve::Server server(session, clock, cfg);
  server.start();
  for (std::size_t i = 0; i < requests; ++i) {
    serve::Request req;
    req.kind = serve::RequestKind::kQuery;
    const auto a = static_cast<NodeId>(i % n);
    const auto b = static_cast<NodeId>((i + 1) % n);
    req.node = a;
    req.query = detect::EdgeQuery{Edge{a, b}};
    (void)server.submit(req);  // shed refusals are counted in stats
    (void)server.take_responses();
  }
  server.stop();
  OpenLoopResult r;
  r.stats = server.stats();
  const double total =
      static_cast<double>(r.stats.answered + r.stats.shed);
  if (total > 0.0) {
    r.shed_fraction = static_cast<double>(r.stats.shed) / total;
  }
  return r;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "serve", "EXP-SRV",
                     "serve layer: query daemon over live churn",
                     "answers arrive at round barriers against immutable "
                     "snapshots; latency is one engine round, throughput "
                     "tracks round rate");
  const auto sizes =
      bench.sweep<std::size_t>({64, 128, 256, 512}, {64, 128});
  const std::size_t rounds = bench.quick() ? 400 : 1500;
  const std::size_t open_requests = bench.quick() ? 4000 : 40000;

  // --- Closed loop: per-query latency across network sizes. ---
  harness::Series qps_s{"closed-loop queries/sec",
                        std::vector<harness::SeriesPoint>(sizes.size())};
  harness::Series p99_s{"closed-loop p99 latency (us)",
                        std::vector<harness::SeriesPoint>(sizes.size())};
  std::printf("\nclosed loop (one query per round, churn(n)):\n");
  std::printf("  %-8s %-12s %-12s %-12s %-10s\n", "n", "queries/s", "p50(ns)",
              "p99(ns)", "answered");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const serve::ServeStats s = closed_loop(n, rounds);
    qps_s.points[i] = {static_cast<double>(n), s.queries_per_sec()};
    p99_s.points[i] = {static_cast<double>(n), s.latency_ns.p99() / 1e3};
    std::printf("  %-8zu %-12.0f %-12.0f %-12.0f %-10llu\n", n,
                s.queries_per_sec(), s.latency_ns.p50(), s.latency_ns.p99(),
                static_cast<unsigned long long>(s.answered));
    if (i == 0) {
      // The smallest size is the canonical gated row: least engine work
      // per round, so its numbers are the cleanest serve-layer signal.
      bench.metric("queries_per_sec", s.queries_per_sec());
      bench.metric("answer_p50_ns", s.latency_ns.p50());
      bench.metric("answer_p99_ns", s.latency_ns.p99());
    }
  }
  bench.report_json_only("n", {qps_s, p99_s});

  // --- Open loop: flood the threaded daemon, watch backpressure. ---
  const OpenLoopResult open = open_loop(bench.quick(), open_requests);
  std::printf("\nopen loop (flood flash-crowd through a 256-slot queue):\n");
  std::printf("  submitted %llu, answered %llu, shed %llu (%.1f%%), "
              "backlog peak %llu\n",
              static_cast<unsigned long long>(open.stats.submitted +
                                              open.stats.shed),
              static_cast<unsigned long long>(open.stats.answered),
              static_cast<unsigned long long>(open.stats.shed),
              open.shed_fraction * 100.0,
              static_cast<unsigned long long>(open.stats.backlog_peak));
  std::printf("  %.0f answers/sec, p50 %.0f ns, p99 %.0f ns\n",
              open.stats.queries_per_sec(), open.stats.latency_ns.p50(),
              open.stats.latency_ns.p99());
  bench.metric("open.queries_per_sec", open.stats.queries_per_sec());
  bench.metric("open.answer_p99_ns", open.stats.latency_ns.p99());
  bench.metric("open.shed_fraction", open.shed_fraction);
  bench.metric("open.backlog_peak",
               static_cast<double>(open.stats.backlog_peak));

  return bench.finish();
}
