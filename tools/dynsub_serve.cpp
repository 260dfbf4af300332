// dynsub_serve -- a long-lived query daemon over live churn.
//
// Runs any registered scenario (or a recorded trace) under any registered
// detector, and answers query()/list()/audit() requests WHILE the topology
// keeps changing: requests are timestamped on arrival, queued at a bounded
// backpressure seam, and answered only at round barriers against the
// just-completed round's snapshot -- every answer carries the round it
// reflects and is never torn across rounds.
//
// Two front ends:
//
//   * --requests FILE: the scripted mode CI drives.  Requests are
//     scheduled by round ("@3 query 0 edge 0:1") and time comes from the
//     deterministic SimClock, so the whole answer stream -- latencies and
//     percentiles included -- is byte-identical across --threads {1,2,4}
//     and across --record / --replay:
//
//       dynsub_serve --scenario flash-crowd --quick --requests qs.txt
//                    --answers answers.txt --record run.trace
//       dynsub_serve --replay run.trace --requests qs.txt
//                    --answers answers2.txt   # answers2 == answers, bytewise
//
//   * --stdin: the interactive daemon.  An engine thread keeps rounds
//     flowing under WallClock; each stdin line is one request ("query 0
//     edge 0:1", "list 2 triangle", "audit"), answers stream out as
//     barriers produce them.
//
// Backpressure is explicit: --queue-capacity bounds the queue and
// --policy picks what a full queue does (shed = refuse with
// status=shed/answer=inconsistent; block = stall the producer until a
// barrier drains).  --drain-budget caps answers per barrier so a backlog
// is observable.  Under --faults chaos plans, queries at degraded nodes
// answer kInconsistent until the network re-converges -- same run, same
// stream, no special mode.
//
// Engine flags, --replay and --record come from the shared front end
// (detect/cli.hpp); the --json run document's summary also carries
// queries_answered/shed, queries_per_sec and answer_p50_ns/answer_p99_ns.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "detect/cli.hpp"
#include "detect/session.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "serve/clock.hpp"
#include "serve/export.hpp"
#include "serve/loop.hpp"
#include "serve/server.hpp"
#include "telemetry/export.hpp"
#include "telemetry/recorder.hpp"

namespace dynsub {
namespace {

/// The flags only this tool has; the engine flags live in the CommandLine.
struct Options {
  std::string requests_path;
  std::string answers_path;
  std::string serve_jsonl_path;
  bool use_stdin = false;
  std::uint64_t queue_capacity = 1024;
  serve::OverflowPolicy policy = serve::OverflowPolicy::kShed;
  std::uint64_t drain_budget = 0;
  std::uint64_t tick_ns = serve::SimClock::kDefaultTickNs;
};

harness::RunSummary merged_summary(const detect::Session& session,
                                   const serve::ServeStats& stats) {
  harness::RunSummary summary = session.summary();
  summary.queries_answered = stats.answered;
  summary.queries_shed = stats.shed;
  summary.queries_per_sec = stats.queries_per_sec();
  summary.answer_p50_ns = stats.latency_ns.p50();
  summary.answer_p99_ns = stats.latency_ns.p99();
  return summary;
}

/// Human status goes to stderr: in daemon mode stdout IS the answer
/// stream, and keeping the channels apart in scripted mode too means a
/// pipeline never has to strip the banner.
void print_serve_summary(const std::string& spec_label,
                         const std::string& detector_spec,
                         std::size_t nodes, std::size_t rounds, bool settled,
                         const serve::ServeStats& stats,
                         const serve::ServeConfig& cfg) {
  std::fprintf(stderr, "scenario:   %s\n", spec_label.c_str());
  std::fprintf(stderr, "detector:   %s\n", detector_spec.c_str());
  std::fprintf(stderr, "n:          %zu\n", nodes);
  std::fprintf(stderr, "rounds:     %zu\n", rounds);
  std::fprintf(stderr,
               "queue:      capacity=%zu policy=%s drain_budget=%zu\n",
               cfg.queue.capacity, serve::to_string(cfg.queue.policy),
               cfg.drain_budget);
  std::fprintf(stderr,
               "requests:   %llu accepted, %llu answered, %llu shed, "
               "backlog peak %llu\n",
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.answered),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.backlog_peak));
  std::fprintf(stderr,
               "latency:    p50=%.0fns p99=%.0fns (%.1f queries/sec)\n",
               stats.latency_ns.p50(), stats.latency_ns.p99(),
               stats.queries_per_sec());
  std::fprintf(stderr, "settled:    %s\n", settled ? "yes" : "no");
}

int run(const detect::CommandLine& cli, const Options& own) {
  const detect::EngineOptions& o = cli.engine();
  telemetry::TelemetryRecorder recorder(
      telemetry::RecorderOptions{.timing = false,
                                 .keep_rounds = !o.telemetry_path.empty(),
                                 .keep_spans = false});

  detect::OpenedSession opened = detect::open_session(
      cli, o.telemetry_path.empty() ? nullptr : &recorder);
  if (!opened.session) return opened.exit_code;
  detect::Session& session = *opened.session;
  const std::string& spec_label = opened.label;

  // The request script (scripted mode only).
  serve::RequestScript script;
  if (!own.use_stdin) {
    std::ifstream in(own.requests_path);
    if (!in) {
      std::fprintf(stderr, "dynsub_serve: cannot open requests '%s'\n",
                   own.requests_path.c_str());
      return 1;
    }
    std::stringstream buffered;
    buffered << in.rdbuf();
    std::string error;
    auto parsed = serve::parse_request_script(buffered.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "dynsub_serve: %s: %s\n",
                   own.requests_path.c_str(), error.c_str());
      return 1;
    }
    script = std::move(*parsed);
  }

  std::ofstream answers_file;
  const bool answers_to_stdout =
      own.answers_path.empty() || own.answers_path == "-";
  if (!answers_to_stdout) {
    answers_file.open(own.answers_path);
    if (!answers_file) {
      std::fprintf(stderr, "dynsub_serve: cannot write answers '%s'\n",
                   own.answers_path.c_str());
      return 1;
    }
  }
  std::ostream& answers = answers_to_stdout ? std::cout : answers_file;

  serve::ServeConfig cfg;
  cfg.queue.capacity = own.queue_capacity;
  cfg.queue.policy = own.policy;
  cfg.drain_budget = own.drain_budget;
  cfg.max_rounds = o.max_rounds;

  std::vector<serve::Response> responses;
  const bool keep_responses = !own.serve_jsonl_path.empty();
  std::size_t rounds = 0;
  serve::ServeStats stats;

  if (own.use_stdin) {
    // Daemon mode: WallClock, engine thread, stdin line protocol.
    serve::WallClock clock;
    serve::Server server(session, clock, cfg);
    server.start();
    const auto emit = [&](const serve::Response& r) {
      answers << serve::to_line(r) << '\n';
      answers.flush();
      if (keep_responses) responses.push_back(r);
    };
    std::string line;
    while (std::getline(std::cin, line)) {
      const auto begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos || line[begin] == '#') continue;
      std::string error;
      auto req = serve::parse_request_line(line.substr(begin), &error);
      if (!req) {
        std::fprintf(stderr, "dynsub_serve: %s\n", error.c_str());
        continue;
      }
      if (auto refusal = server.submit(std::move(*req))) emit(*refusal);
      for (const auto& r : server.take_responses()) emit(r);
    }
    server.stop();
    for (const auto& r : server.take_responses()) emit(r);
    stats = server.stats();
    rounds = static_cast<std::size_t>(session.sim().round());
  } else {
    // Scripted mode: SimClock, deterministic answer stream.
    serve::SimClock clock(own.tick_ns);
    serve::ServeLoop loop(session, clock, cfg);
    rounds = loop.run(script, [&](const serve::Response& r) {
      answers << serve::to_line(r) << '\n';
      if (keep_responses) responses.push_back(r);
    });
    stats = loop.stats();
  }
  if (!answers.good()) {
    std::fprintf(stderr, "dynsub_serve: failed writing answer stream\n");
    return 1;
  }

  if (const int code = detect::write_recorded_trace(cli, opened)) return code;

  if (!own.serve_jsonl_path.empty()) {
    std::ofstream out(own.serve_jsonl_path);
    if (out) serve::write_serve_jsonl(out, responses);
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_serve: failed to write '%s'\n",
                   own.serve_jsonl_path.c_str());
      return 1;
    }
  }

  if (!o.telemetry_path.empty()) {
    std::ofstream out(o.telemetry_path);
    if (out) telemetry::write_round_jsonl(out, recorder.rounds());
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_serve: failed to write telemetry '%s'\n",
                   o.telemetry_path.c_str());
      return 1;
    }
  }

  const detect::DetectorInfo& dinfo = session.detector().info();
  print_serve_summary(spec_label, dinfo.spec, session.nodes(), rounds,
                      session.settled(), stats, cfg);

  if (!o.json_path.empty()) {
    const harness::Json doc = harness::make_run_document(
        "dynsub_serve", spec_label, dinfo.spec, session.nodes(),
        session.settled(), merged_summary(session, stats));
    if (!harness::write_json_file(o.json_path, doc)) {
      std::fprintf(stderr, "dynsub_serve: failed to write %s\n",
                   o.json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using dynsub::detect::EngineFlag;
  using dynsub::serve::OverflowPolicy;
  dynsub::Options own;
  dynsub::detect::CommandLine cli(
      "dynsub_serve",
      {"--scenario <name-or-spec> --requests <file> [options]",
       "--replay <trace-file> --requests <file> [options]",
       "--scenario <name-or-spec> --stdin [options]"},
      {EngineFlag::kScenario, EngineFlag::kReplay, EngineFlag::kDetector,
       EngineFlag::kN, EngineFlag::kThreads, EngineFlag::kShards,
       EngineFlag::kFaults, EngineFlag::kSeed, EngineFlag::kQuick,
       EngineFlag::kMaxRounds, EngineFlag::kRecord, EngineFlag::kJson,
       EngineFlag::kTelemetry});
  cli.add_string("--requests", "F",
                 "scripted mode (deterministic SimClock): a file of\n"
                 "round-scheduled requests, one per line:\n"
                 "  @3 query 0 edge 0:1\n"
                 "  @5 query 4 triangle 2 7\n"
                 "  @8 list 0 triangle\n"
                 "  @9 audit",
                 &own.requests_path);
  cli.add_switch("--stdin",
                 "daemon mode (WallClock): read one request per\n"
                 "stdin line (same syntax, no @round), answer as\n"
                 "round barriers produce results",
                 &own.use_stdin);
  cli.add_string("--answers", "PATH",
                 "write the answer stream there ('-' or omitted:\n"
                 "stdout)",
                 &own.answers_path);
  cli.add_string("--serve-jsonl", "PATH",
                 "write one JSON record per answer (fixed\n"
                 "schema; summarize with dynsub_stats)",
                 &own.serve_jsonl_path);
  cli.add_count("--queue-capacity", "C",
                "bounded request queue size (default 1024)",
                &own.queue_capacity, 1);
  cli.add_flag("--policy", "P",
               "full-queue policy: shed | block (default shed)",
               [&own](const char* v, std::string* error) {
                 const std::string_view p = v;
                 if (p != "shed" && p != "block") {
                   *error = "--policy wants shed|block, got '" +
                            std::string(p) + "'";
                   return false;
                 }
                 own.policy = p == "shed" ? OverflowPolicy::kShed
                                          : OverflowPolicy::kBlock;
                 return true;
               });
  cli.add_count("--drain-budget", "B",
                "answers per round barrier, 0 = all (default)",
                &own.drain_budget);
  cli.add_count("--tick-ns", "T",
                "SimClock nanoseconds per round (default " +
                    std::to_string(dynsub::serve::SimClock::kDefaultTickNs) +
                    ")",
                &own.tick_ns, 1);
  if (const auto code = cli.parse(argc, argv)) return *code;
  if (own.use_stdin && !own.requests_path.empty()) {
    std::fprintf(stderr,
                 "dynsub_serve: --stdin and --requests are exclusive\n");
    return 2;
  }
  if (!own.use_stdin && own.requests_path.empty()) {
    std::fprintf(stderr,
                 "dynsub_serve: need --requests <file> or --stdin\n");
    return 2;
  }
  return dynsub::run(cli, own);
}
