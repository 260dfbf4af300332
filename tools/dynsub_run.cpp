// dynsub_run -- one CLI for every scenario and every detector.
//
// Runs any registered scenario (or any spec string in the scenario grammar)
// against any registered detector (or any spec string in the detector
// grammar) at any n, prints a human summary, optionally writes the standard
// RunSummary JSON, and can record the emitted event trace and replay it
// bit-identically later:
//
//   dynsub_run --list
//   dynsub_run --scenario flash-crowd --quick
//   dynsub_run --scenario 'throttle(churn(n=64, max=12), cap=3)'
//              --detector 'triangle(k=4)' --json out.json
//   dynsub_run --scenario multi-community-churn --record crowd.trace
//   dynsub_run --replay crowd.trace --detector robust3hop --json replayed.json
//
// Everything resolves through the registries: scenarios through
// scenario::build_scenario, detectors through detect::build_detector, and
// the whole stack is assembled by a detect::Session -- this tool wires no
// components by hand.  Engine flags, --replay and --record come from the
// shared front end (detect/cli.hpp).  The JSON summary is produced without
// wall-clock timing, so a recorded run and its replay emit byte-identical
// "summary" objects -- which is exactly what the CI scenario-smoke job
// asserts.
#include <cstdio>
#include <fstream>
#include <string>

#include "detect/cli.hpp"
#include "detect/registry.hpp"
#include "detect/session.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "net/metrics.hpp"
#include "scenario/registry.hpp"
#include "telemetry/export.hpp"
#include "telemetry/recorder.hpp"

namespace dynsub {
namespace {

/// The flags only this tool has; the engine flags live in the CommandLine.
struct Options {
  std::string chrome_trace_path;
  std::string shard_stats_path;
  bool list = false;
  bool list_detectors = false;
  bool names_only = false;
};

const char* kind_label(scenario::ScenarioKind kind) {
  switch (kind) {
    case scenario::ScenarioKind::kPrimitive:
      return "primitive";
    case scenario::ScenarioKind::kCombinator:
      return "combinator";
    case scenario::ScenarioKind::kComposite:
      return "composite";
  }
  return "?";
}

const char* kind_label(detect::DetectorKind kind) {
  switch (kind) {
    case detect::DetectorKind::kCore:
      return "core";
    case detect::DetectorKind::kBaseline:
      return "baseline";
    case detect::DetectorKind::kAlias:
      return "alias";
  }
  return "?";
}

int list_detector_specs() {
  // One runnable detector spec per line, for scripts (the CI smoke loop).
  for (const auto& info : detect::detector_catalog()) {
    std::printf("%s\n", info.example.c_str());
  }
  return 0;
}

int list_registry(bool names_only) {
  const auto& catalog = scenario::scenario_catalog();
  if (names_only) {
    // One runnable entry per line, for scripts (the CI smoke loop).
    // Combinators cannot run bare, so their example spec stands in.
    for (const auto& info : catalog) {
      if (info.kind == scenario::ScenarioKind::kCombinator) {
        std::printf("%s\n", info.example.c_str());
      } else {
        std::printf("%s\n", info.name.c_str());
      }
    }
    return 0;
  }
  std::printf("registered scenarios (%zu):\n\n", catalog.size());
  for (const auto& info : catalog) {
    std::printf("  %-36s %-10s %s\n", info.name.c_str(),
                kind_label(info.kind), info.summary.c_str());
    std::printf("  %-36s %-10s e.g. %s\n", "", "", info.example.c_str());
  }
  const auto& detectors = detect::detector_catalog();
  std::printf("\nregistered detectors (%zu):\n\n", detectors.size());
  for (const auto& info : detectors) {
    std::printf("  %-36s %-10s %s\n", info.name.c_str(),
                kind_label(info.kind), info.summary.c_str());
    std::printf("  %-36s %-10s e.g. %s\n", "", "", info.example.c_str());
  }
  std::printf(
      "\nspec grammar: name(param=value, child, ...), nestable; see "
      "src/scenario/spec.hpp\n");
  return 0;
}

int run(const detect::CommandLine& cli, const Options& own) {
  const detect::EngineOptions& o = cli.engine();
  // The recorder outlives the Session (the simulator holds a raw pointer
  // to it).  Timing + raw spans only when a Chrome trace was asked for;
  // round records only when JSONL was -- a --chrome-trace-only run keeps
  // the deterministic channel's storage off.
  telemetry::TelemetryRecorder recorder(
      telemetry::RecorderOptions{.timing = !own.chrome_trace_path.empty(),
                                 .keep_rounds = !o.telemetry_path.empty(),
                                 .keep_spans = !own.chrome_trace_path.empty()});
  const bool want_telemetry =
      !o.telemetry_path.empty() || !own.chrome_trace_path.empty();

  detect::OpenedSession opened =
      detect::open_session(cli, want_telemetry ? &recorder : nullptr);
  if (!opened.session) return opened.exit_code;
  detect::Session& session = *opened.session;
  const std::string& spec_label = opened.label;

  const std::size_t rounds_run = session.run();
  const std::size_t nodes = session.nodes();
  const detect::DetectorInfo& dinfo = session.detector().info();

  if (const int code = detect::write_recorded_trace(cli, opened)) return code;

  std::string query_kinds;
  for (const auto kind : dinfo.queries) {
    if (!query_kinds.empty()) query_kinds += ", ";
    query_kinds += to_string(kind);
  }

  const harness::RunSummary summary = session.summary();
  std::printf("scenario:   %s\n", spec_label.c_str());
  std::printf("detector:   %s (%s)\n", dinfo.spec.c_str(),
              std::string(to_string(dinfo.problem)).c_str());
  std::printf("queries:    %s\n", query_kinds.c_str());
  std::printf("n:          %zu\n", nodes);
  std::printf("rounds:     %zu (driver), %lld (simulated)\n", rounds_run,
              static_cast<long long>(summary.rounds));
  std::printf("changes:    %llu\n",
              static_cast<unsigned long long>(summary.changes));
  std::printf("messages:   %llu\n",
              static_cast<unsigned long long>(summary.messages));
  std::printf("amortized:  %.4f inconsistent rounds/change (sup %.4f)\n",
              summary.amortized, summary.amortized_sup);
  std::printf("settled:    %s\n", session.settled() ? "yes" : "no");
  if (!o.record_path.empty()) {
    std::printf("trace:      %s\n", o.record_path.c_str());
  }

  if (!o.telemetry_path.empty()) {
    std::ofstream out(o.telemetry_path);
    if (out) telemetry::write_round_jsonl(out, recorder.rounds());
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed to write telemetry '%s'\n",
                   o.telemetry_path.c_str());
      return 1;
    }
    std::printf("telemetry:  %s (%zu rounds)\n", o.telemetry_path.c_str(),
                recorder.rounds().size());
  }
  if (!own.shard_stats_path.empty()) {
    // One JSON line per shard, leading key "shard" (dynsub_stats
    // discriminates record types by that key).  The counters are the
    // cross-seam story only: frames and wire bytes that actually crossed
    // this shard's ingress, plus faults and lost batches charged to it.
    std::ofstream out(own.shard_stats_path);
    const auto& per_shard = session.sim().metrics().shard_stats();
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      const net::ShardStats& st = per_shard[s];
      if (out) {
        out << "{\"shard\":" << s << ",\"frames\":" << st.frames
            << ",\"wire_bytes\":" << st.wire_bytes
            << ",\"faults\":" << st.faults
            << ",\"lost_batches\":" << st.lost_batches << "}\n";
      }
    }
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed to write shard stats '%s'\n",
                   own.shard_stats_path.c_str());
      return 1;
    }
    std::printf("shards:     %s (%zu shards)\n", own.shard_stats_path.c_str(),
                per_shard.size());
  }
  if (!own.chrome_trace_path.empty()) {
    std::ofstream out(own.chrome_trace_path);
    if (out) telemetry::write_chrome_trace(out, recorder);
    if (!out.good()) {
      std::fprintf(stderr, "dynsub_run: failed to write chrome trace '%s'\n",
                   own.chrome_trace_path.c_str());
      return 1;
    }
    std::printf("chrome:     %s (%zu lanes)\n", own.chrome_trace_path.c_str(),
                recorder.lanes());
  }

  if (!o.json_path.empty()) {
    const harness::Json doc = harness::make_run_document(
        "dynsub_run", spec_label, dinfo.spec, nodes, session.settled(),
        summary);
    if (!harness::write_json_file(o.json_path, doc)) {
      std::fprintf(stderr, "dynsub_run: failed to write %s\n",
                   o.json_path.c_str());
      return 1;
    }
    std::printf("json:       %s\n", o.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using dynsub::detect::EngineFlag;
  dynsub::Options own;
  dynsub::detect::CommandLine cli(
      "dynsub_run",
      {"--scenario <name-or-spec> [options]", "--replay <trace-file> [options]",
       "--list [--names-only]"},
      {EngineFlag::kScenario, EngineFlag::kReplay, EngineFlag::kDetector,
       EngineFlag::kN, EngineFlag::kThreads, EngineFlag::kShards,
       EngineFlag::kFaults, EngineFlag::kSeed, EngineFlag::kQuick,
       EngineFlag::kMaxRounds, EngineFlag::kRecord, EngineFlag::kJson,
       EngineFlag::kTelemetry});
  cli.add_string("--shard-stats", "PATH",
                 "write one JSON line per shard (frames,\n"
                 "wire bytes, faults, lost batches crossing that\n"
                 "shard's ingress); summarize with dynsub_stats",
                 &own.shard_stats_path);
  cli.add_string("--chrome-trace", "PATH",
                 "write wall-clock phase spans in Chrome\n"
                 "trace-event JSON (load in chrome://tracing or\n"
                 "Perfetto; one track per engine lane).  Timing\n"
                 "data -- never byte-stable across runs",
                 &own.chrome_trace_path);
  cli.add_switch("--list",
                 "print the scenario and detector registries and exit",
                 &own.list);
  cli.add_switch("--names-only",
                 "with --list: one runnable scenario name per line",
                 &own.names_only);
  cli.add_switch("--list-detectors",
                 "one runnable detector spec per line (scripts)",
                 &own.list_detectors);
  if (const auto code = cli.parse(argc, argv)) return *code;
  if (own.list_detectors) return dynsub::list_detector_specs();
  if (own.list) return dynsub::list_registry(own.names_only);
  return dynsub::run(cli, own);
}
