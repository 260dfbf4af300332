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
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "net/faults.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"
#include "serve/clock.hpp"
#include "serve/export.hpp"
#include "serve/loop.hpp"
#include "serve/server.hpp"
#include "telemetry/export.hpp"
#include "telemetry/recorder.hpp"

namespace dynsub {
namespace {

struct Options {
  std::string scenario;
  std::string replay_path;
  std::string requests_path;
  std::string answers_path;
  std::string serve_jsonl_path;
  std::string json_path;
  std::string telemetry_path;
  std::string record_path;
  std::string detector = "triangle";
  net::FaultPlan faults{};
  std::size_t n = 0;
  std::size_t threads = 0;
  std::size_t shards = 1;
  std::uint64_t seed = 1;
  bool quick = false;
  bool use_stdin = false;
  std::size_t max_rounds = 1000000;
  std::size_t queue_capacity = 1024;
  serve::OverflowPolicy policy = serve::OverflowPolicy::kShed;
  std::size_t drain_budget = 0;
  std::uint64_t tick_ns = serve::SimClock::kDefaultTickNs;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s --scenario <name-or-spec> --requests <file> [options]\n"
      "       %s --replay <trace-file> --requests <file> [options]\n"
      "       %s --scenario <name-or-spec> --stdin [options]\n"
      "\n"
      "  --scenario S    a registered scenario name or spec string\n"
      "  --replay PATH   drive churn from a recorded trace instead\n"
      "  --detector D    a registered detector name or spec (default:\n"
      "                  triangle; dynsub_run --list prints the registry)\n"
      "  --requests F    scripted mode (deterministic SimClock): a file of\n"
      "                  round-scheduled requests, one per line:\n"
      "                    @3 query 0 edge 0:1\n"
      "                    @5 query 4 triangle 2 7\n"
      "                    @8 list 0 triangle\n"
      "                    @9 audit\n"
      "  --stdin         daemon mode (WallClock): read one request per\n"
      "                  stdin line (same syntax, no @round), answer as\n"
      "                  round barriers produce results\n"
      "  --answers PATH  write the answer stream there ('-' or omitted:\n"
      "                  stdout)\n"
      "  --serve-jsonl PATH  write one JSON record per answer (fixed\n"
      "                  schema; summarize with dynsub_stats)\n"
      "  --json PATH     write the run document; its summary carries\n"
      "                  queries_answered/shed, queries_per_sec,\n"
      "                  answer_p50_ns/answer_p99_ns\n"
      "  --telemetry PATH  write per-round telemetry JSONL\n"
      "  --record PATH   write the churn event trace for later --replay\n"
      "  --n N           default node count (scenario may raise it)\n"
      "  --threads T     parallel round engine with T lanes (0 = seq;\n"
      "                  the answer stream is bit-identical either way)\n"
      "  --shards S      partition the network into S shards with\n"
      "                  per-shard Routers trading lane-batch frames at\n"
      "                  the round barrier (default 1; the answer stream\n"
      "                  is bit-identical at every S)\n"
      "  --faults F      fault plan ('none' or chaos(...); see dynsub_run)\n"
      "  --seed S        default seed for stochastic scenarios\n"
      "  --quick         shrink default round counts (CI smoke)\n"
      "  --max-rounds R  round cap (default 1000000)\n"
      "  --queue-capacity C  bounded request queue size (default 1024)\n"
      "  --policy P      full-queue policy: shed | block (default shed)\n"
      "  --drain-budget B    answers per round barrier, 0 = all (default)\n"
      "  --tick-ns T     SimClock nanoseconds per round (default %llu)\n",
      argv0, argv0, argv0,
      static_cast<unsigned long long>(serve::SimClock::kDefaultTickNs));
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool parse_failed = false;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires an argument\n", argv[0],
                   argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  // Strict: a typo like "--n 10O0" must be an error, not a silent 10.
  auto parse_flag_u64 = [&](const char* flag,
                            const char* text) -> std::uint64_t {
    const auto v = parse_u64(text);
    if (!v) {
      std::fprintf(stderr, "%s: %s wants an unsigned integer, got '%s'\n",
                   argv[0], flag, text);
      parse_failed = true;
      return 0;
    }
    return *v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = nullptr;
    if (arg == "--scenario") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.scenario = v;
    } else if (arg == "--replay") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.replay_path = v;
    } else if (arg == "--requests") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.requests_path = v;
    } else if (arg == "--answers") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.answers_path = v;
    } else if (arg == "--serve-jsonl") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.serve_jsonl_path = v;
    } else if (arg == "--json") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.json_path = v;
    } else if (arg == "--telemetry") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.telemetry_path = v;
    } else if (arg == "--record") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.record_path = v;
    } else if (arg == "--detector") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.detector = v;
    } else if (arg == "--n") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.n = static_cast<std::size_t>(parse_flag_u64("--n", v));
    } else if (arg == "--threads") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.threads = static_cast<std::size_t>(parse_flag_u64("--threads", v));
      if (o.threads > 256) {
        std::fprintf(stderr, "%s: --threads %zu is out of range (max 256)\n",
                     argv[0], o.threads);
        parse_failed = true;
      }
    } else if (arg == "--shards") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.shards = static_cast<std::size_t>(parse_flag_u64("--shards", v));
      if (o.shards == 0 || o.shards > 64) {
        std::fprintf(stderr, "%s: --shards %zu is out of range (1..64)\n",
                     argv[0], o.shards);
        parse_failed = true;
      }
    } else if (arg == "--faults") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      std::string error;
      const auto plan = net::parse_fault_plan(v, &error);
      if (!plan) {
        std::fprintf(stderr, "%s: --faults: %s\n", argv[0], error.c_str());
        parse_failed = true;
      } else {
        o.faults = *plan;
      }
    } else if (arg == "--seed") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.seed = parse_flag_u64("--seed", v);
    } else if (arg == "--max-rounds") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.max_rounds =
          static_cast<std::size_t>(parse_flag_u64("--max-rounds", v));
    } else if (arg == "--queue-capacity") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.queue_capacity =
          static_cast<std::size_t>(parse_flag_u64("--queue-capacity", v));
      if (o.queue_capacity == 0) {
        std::fprintf(stderr, "%s: --queue-capacity must be >= 1\n", argv[0]);
        parse_failed = true;
      }
    } else if (arg == "--policy") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      const std::string_view p = v;
      if (p == "shed") {
        o.policy = serve::OverflowPolicy::kShed;
      } else if (p == "block") {
        o.policy = serve::OverflowPolicy::kBlock;
      } else {
        std::fprintf(stderr, "%s: --policy wants shed|block, got '%s'\n",
                     argv[0], v);
        parse_failed = true;
      }
    } else if (arg == "--drain-budget") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.drain_budget =
          static_cast<std::size_t>(parse_flag_u64("--drain-budget", v));
    } else if (arg == "--tick-ns") {
      if ((v = value(i)) == nullptr) return std::nullopt;
      o.tick_ns = parse_flag_u64("--tick-ns", v);
      if (o.tick_ns == 0) {
        std::fprintf(stderr, "%s: --tick-ns must be >= 1\n", argv[0]);
        parse_failed = true;
      }
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--stdin") {
      o.use_stdin = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                   argv[0], argv[i]);
      return std::nullopt;
    }
  }
  if (parse_failed) return std::nullopt;
  return o;
}

std::size_t max_node_in(
    const std::vector<std::vector<EdgeEvent>>& rounds) {
  std::size_t max_id = 0;
  for (const auto& batch : rounds) {
    for (const auto& ev : batch) {
      max_id = std::max<std::size_t>(max_id, ev.edge.hi());
    }
  }
  return max_id;
}

/// Builds the Session the same way dynsub_run does: scenario spec, or
/// strict trace replay with the "# n=" header validated against the trace
/// body and the CLI flags (a mismatched size would silently change the
/// simulation, so every mismatch refuses).
std::optional<detect::Session> open_session(const Options& o,
                                            detect::SessionOptions sopts,
                                            std::string* spec_label) {
  std::string error;
  std::optional<detect::Session> session;
  if (!o.replay_path.empty()) {
    std::ifstream in(o.replay_path);
    if (!in) {
      std::fprintf(stderr, "dynsub_serve: cannot open trace '%s'\n",
                   o.replay_path.c_str());
      return std::nullopt;
    }
    std::stringstream buffered;
    buffered << in.rdbuf();
    const std::string text = buffered.str();
    std::size_t header_n = 0;
    {
      std::istringstream lines(text);
      std::string line;
      while (std::getline(lines, line) && !line.empty() && line[0] == '#') {
        if (line.rfind("# n=", 0) == 0) {
          const auto v = parse_u64(line.substr(4));
          if (!v || *v == 0) {
            std::fprintf(stderr,
                         "dynsub_serve: %s: corrupt trace header '%s' "
                         "(want '# n=<count>')\n",
                         o.replay_path.c_str(), line.c_str());
            return std::nullopt;
          }
          header_n = static_cast<std::size_t>(*v);
        }
      }
    }
    if (o.n != 0 && header_n != 0 && o.n != header_n) {
      std::fprintf(stderr,
                   "dynsub_serve: %s was recorded at n=%zu but --n %zu was "
                   "given; replay refuses a mismatched size.\n",
                   o.replay_path.c_str(), header_n, o.n);
      return std::nullopt;
    }
    std::istringstream trace_in(text);
    const auto rounds = net::read_trace(trace_in, &error);
    if (!rounds) {
      std::fprintf(stderr, "dynsub_serve: %s: %s\n", o.replay_path.c_str(),
                   error.c_str());
      return std::nullopt;
    }
    const std::size_t max_id_plus_1 = max_node_in(*rounds) + 1;
    if (header_n != 0 && max_id_plus_1 > header_n) {
      std::fprintf(stderr,
                   "dynsub_serve: %s: trace events reference node %zu but "
                   "the header says n=%zu; the trace is corrupt.\n",
                   o.replay_path.c_str(), max_id_plus_1 - 1, header_n);
      return std::nullopt;
    }
    const std::size_t trace_nodes = std::max({o.n, header_n, max_id_plus_1});
    session = detect::Session::open(
        std::move(sopts), std::make_unique<net::ScriptedWorkload>(*rounds),
        trace_nodes, &error);
    *spec_label = "replay:" + o.replay_path;
  } else {
    sopts.scenario = o.scenario;
    session = detect::Session::open(std::move(sopts), &error);
    if (session) *spec_label = session->scenario_spec();
  }
  if (!session) {
    std::fprintf(stderr, "dynsub_serve: %s\n", error.c_str());
    return std::nullopt;
  }
  return session;
}

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

int run(const Options& o) {
  telemetry::TelemetryRecorder recorder(
      telemetry::RecorderOptions{.timing = false,
                                 .keep_rounds = !o.telemetry_path.empty(),
                                 .keep_spans = false});

  detect::SessionOptions sopts;
  sopts.detector = o.detector;
  sopts.n = o.n;
  sopts.seed = o.seed;
  sopts.quick = o.quick;
  sopts.max_rounds = o.max_rounds;
  sopts.record = !o.record_path.empty();
  sopts.sim = {.enforce_bandwidth = true,
               .track_prev_graph = false,
               .sparse_rounds = true,
               .threads = o.threads,
               .shards = o.shards,
               .faults = o.faults};
  if (!o.telemetry_path.empty()) sopts.sim.telemetry = &recorder;

  // Resolve the detector spec first so an unknown name is a usage error
  // (exit 2), not a generic run failure.
  {
    std::string error;
    if (detect::build_detector(o.detector, &error) == nullptr) {
      std::fprintf(stderr, "dynsub_serve: %s\n", error.c_str());
      return 2;
    }
  }

  std::string spec_label;
  auto session = open_session(o, std::move(sopts), &spec_label);
  if (!session) return 1;

  // The request script (scripted mode only).
  serve::RequestScript script;
  if (!o.use_stdin) {
    std::ifstream in(o.requests_path);
    if (!in) {
      std::fprintf(stderr, "dynsub_serve: cannot open requests '%s'\n",
                   o.requests_path.c_str());
      return 1;
    }
    std::stringstream buffered;
    buffered << in.rdbuf();
    std::string error;
    auto parsed = serve::parse_request_script(buffered.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "dynsub_serve: %s: %s\n",
                   o.requests_path.c_str(), error.c_str());
      return 1;
    }
    script = std::move(*parsed);
  }

  std::ofstream answers_file;
  const bool answers_to_stdout = o.answers_path.empty() || o.answers_path == "-";
  if (!answers_to_stdout) {
    answers_file.open(o.answers_path);
    if (!answers_file) {
      std::fprintf(stderr, "dynsub_serve: cannot write answers '%s'\n",
                   o.answers_path.c_str());
      return 1;
    }
  }
  std::ostream& answers = answers_to_stdout ? std::cout : answers_file;

  serve::ServeConfig cfg;
  cfg.queue.capacity = o.queue_capacity;
  cfg.queue.policy = o.policy;
  cfg.drain_budget = o.drain_budget;
  cfg.max_rounds = o.max_rounds;

  std::vector<serve::Response> responses;
  const bool keep_responses = !o.serve_jsonl_path.empty();
  std::size_t rounds = 0;
  serve::ServeStats stats;

  if (o.use_stdin) {
    // Daemon mode: WallClock, engine thread, stdin line protocol.
    serve::WallClock clock;
    serve::Server server(*session, clock, cfg);
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
    rounds = static_cast<std::size_t>(session->sim().round());
  } else {
    // Scripted mode: SimClock, deterministic answer stream.
    serve::SimClock clock(o.tick_ns);
    serve::ServeLoop loop(*session, clock, cfg);
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

  if (!o.record_path.empty()) {
    std::ofstream out(o.record_path);
    if (!out) {
      std::fprintf(stderr, "dynsub_serve: cannot write trace '%s'\n",
                   o.record_path.c_str());
      return 1;
    }
    out << "# dynsub_serve trace of: " << spec_label << "\n";
    out << "# n=" << session->nodes() << "\n";
    net::write_trace(out, session->recorded());
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_serve: failed writing trace '%s'\n",
                   o.record_path.c_str());
      return 1;
    }
  }

  if (!o.serve_jsonl_path.empty()) {
    std::ofstream out(o.serve_jsonl_path);
    if (out) serve::write_serve_jsonl(out, responses);
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_serve: failed to write '%s'\n",
                   o.serve_jsonl_path.c_str());
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

  const detect::DetectorInfo& dinfo = session->detector().info();
  print_serve_summary(spec_label, dinfo.spec, session->nodes(), rounds,
                      session->settled(), stats, cfg);

  if (!o.json_path.empty()) {
    const harness::Json doc = harness::make_run_document(
        "dynsub_serve", spec_label, dinfo.spec, session->nodes(),
        session->settled(), merged_summary(*session, stats));
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
  const auto opts = dynsub::parse_args(argc, argv);
  if (!opts) return 2;
  if (opts->scenario.empty() && opts->replay_path.empty()) {
    dynsub::usage(argv[0]);
    return 2;
  }
  if (!opts->scenario.empty() && !opts->replay_path.empty()) {
    std::fprintf(stderr,
                 "dynsub_serve: --scenario and --replay are exclusive\n");
    return 2;
  }
  if (opts->use_stdin && !opts->requests_path.empty()) {
    std::fprintf(stderr,
                 "dynsub_serve: --stdin and --requests are exclusive\n");
    return 2;
  }
  if (!opts->use_stdin && opts->requests_path.empty()) {
    std::fprintf(stderr,
                 "dynsub_serve: need --requests <file> or --stdin\n");
    return 2;
  }
  return dynsub::run(*opts);
}
