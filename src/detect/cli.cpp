#include "detect/cli.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "common/format.hpp"
#include "detect/registry.hpp"
#include "net/trace.hpp"
#include "net/workload.hpp"

namespace dynsub::detect {
namespace {

constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();

/// Strict: a typo like "--n 10O0" must be an error, not a silent 10.
std::optional<std::uint64_t> parse_count(std::string_view flag,
                                         const char* text, std::uint64_t min,
                                         std::uint64_t max,
                                         std::string* error) {
  const auto v = parse_u64(text);
  if (!v) {
    *error = std::string(flag) + " wants an unsigned integer, got '" + text +
             "'";
    return std::nullopt;
  }
  if (*v < min || *v > max) {
    const std::string range =
        max == kNoMax ? ">= " + std::to_string(min)
        : min == 0    ? "max " + std::to_string(max)
                      : std::to_string(min) + ".." + std::to_string(max);
    *error = std::string(flag) + " " + text + " is out of range (" + range +
             ")";
    return std::nullopt;
  }
  return v;
}

/// How an engine flag's value parses.
enum class Kind : std::uint8_t {
  kSwitch,  // no value
  kText,    // any string
  kCount,   // a strict unsigned integer in [min, max]
  kFaults,  // a net::parse_fault_plan spec
};

struct EngineFlagDef {
  EngineFlag flag;
  std::string_view name;
  std::string_view metavar;  // empty for a switch
  Kind kind;
  std::string_view help;
  std::uint64_t min = 0;
  std::uint64_t max = kNoMax;
};

/// The one definition of every engine flag, in EngineFlag order.
constexpr std::array<EngineFlagDef, 13> kEngineFlags{{
    {EngineFlag::kScenario, "--scenario", "S", Kind::kText,
     "a registered scenario name or a spec string,\n"
     "e.g. 'overlay(churn(n=32), planted-clique(n=32))'"},
    {EngineFlag::kReplay, "--replay", "PATH", Kind::kText,
     "drive the run from a recorded trace instead\n"
     "(its '# n=' header sizes the network)"},
    {EngineFlag::kDetector, "--detector", "D", Kind::kText,
     "a registered detector name or a spec string,\n"
     "e.g. 'triangle(k=4)' or 'flood(radius=3)'\n"
     "(default: triangle; dynsub_run --list prints the registry)"},
    {EngineFlag::kN, "--n", "N", Kind::kCount,
     "default node count (a spec's n parameter wins;\n"
     "the network is sized to fit the scenario)"},
    {EngineFlag::kThreads, "--threads", "T", Kind::kCount,
     "parallel round engine with T lanes, at most 256\n"
     "(0 = the sequential engine; results are bit-identical)",
     0, 256},
    {EngineFlag::kShards, "--shards", "S", Kind::kCount,
     "partition the network into S shards (1..64), each\n"
     "with its own Router trading lane-batch frames at\n"
     "the round barrier (default 1; results are\n"
     "bit-identical at every S)",
     1, 64},
    {EngineFlag::kFaults, "--faults", "F", Kind::kFaults,
     "fault plan for the lane-batch transport seam:\n"
     "'none' (default) or 'chaos(seed=7, drop=0.01,\n"
     "corrupt=0.005, duplicate=0.01, reorder=0.1,\n"
     "delay=0.01, retries=8, backoff_base=1,\n"
     "backoff_cap=64, kill_lane=2, kill_from=10,\n"
     "kill_until=20)' -- every parameter optional;\n"
     "recoverable faults replay bit-identically"},
    {EngineFlag::kSeed, "--seed", "S", Kind::kCount,
     "base seed for stochastic workloads (a spec's own\n"
     "seed wins; the same seed reruns bit-identically)"},
    {EngineFlag::kQuick, "--quick", "", Kind::kSwitch,
     "shrink default round counts and sweeps (CI smoke)"},
    {EngineFlag::kMaxRounds, "--max-rounds", "R", Kind::kCount,
     "round cap for the run (default 1000000)"},
    {EngineFlag::kRecord, "--record", "PATH", Kind::kText,
     "write the emitted event trace for later --replay"},
    {EngineFlag::kJson, "--json", "PATH", Kind::kText,
     "write the results as a JSON document"},
    {EngineFlag::kTelemetry, "--telemetry", "PATH", Kind::kText,
     "write per-round telemetry as JSON Lines (the\n"
     "deterministic channel: byte-identical across\n"
     "record/replay and, fault-free, across --threads;\n"
     "summarize with dynsub_stats)"},
}};

constexpr bool table_in_enum_order() {
  for (std::size_t i = 0; i < kEngineFlags.size(); ++i) {
    if (static_cast<std::size_t>(kEngineFlags[i].flag) != i) return false;
  }
  return true;
}
static_assert(table_in_enum_order(), "kEngineFlags must follow EngineFlag");

const EngineFlagDef& def_of(EngineFlag flag) {
  return kEngineFlags[static_cast<std::size_t>(flag)];
}

/// Parses `value` by the flag's kind and stores it in `o`.
bool apply(const EngineFlagDef& def, const char* value, EngineOptions& o,
           std::string* error) {
  std::uint64_t count = 0;
  if (def.kind == Kind::kCount) {
    const auto c = parse_count(def.name, value, def.min, def.max, error);
    if (!c) return false;
    count = *c;
  }
  switch (def.flag) {
    case EngineFlag::kScenario: o.scenario = value; break;
    case EngineFlag::kReplay: o.replay_path = value; break;
    case EngineFlag::kDetector: o.detector = value; break;
    case EngineFlag::kN: o.n = count; break;
    case EngineFlag::kThreads: o.threads = count; break;
    case EngineFlag::kShards: o.shards = count; break;
    case EngineFlag::kFaults: {
      std::string why;
      const auto plan = net::parse_fault_plan(value, &why);
      if (!plan) {
        *error = "--faults: " + why;
        return false;
      }
      o.faults = *plan;
      break;
    }
    case EngineFlag::kSeed: o.seed = count; break;
    case EngineFlag::kQuick: o.quick = true; break;
    case EngineFlag::kMaxRounds: o.max_rounds = count; break;
    case EngineFlag::kRecord: o.record_path = value; break;
    case EngineFlag::kJson: o.json_path = value; break;
    case EngineFlag::kTelemetry: o.telemetry_path = value; break;
  }
  return true;
}

/// One help entry: the flag and its metavar, then the help text with
/// continuation lines aligned under the first.
void print_flag(std::string_view name, std::string_view metavar,
                std::string_view help) {
  constexpr int kColumn = 16;
  std::string left(name);
  if (!metavar.empty()) {
    left += ' ';
    left += metavar;
  }
  const bool wide = left.size() >= static_cast<std::size_t>(kColumn);
  std::printf("  %-*s%s", kColumn, left.c_str(), wide ? "  " : "");
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = help.find('\n', begin);
    const std::string_view line = help.substr(begin, end - begin);
    if (begin != 0) std::printf("  %*s", kColumn, "");
    std::printf("%.*s\n", static_cast<int>(line.size()), line.data());
    if (end == std::string_view::npos) break;
    begin = end + 1;
  }
}

}  // namespace

CommandLine::CommandLine(std::string tool, std::vector<std::string> synopsis,
                         const std::vector<EngineFlag>& reads)
    : tool_(std::move(tool)), program_(tool_), synopsis_(std::move(synopsis)) {
  for (const EngineFlag flag : reads) {
    const EngineFlagDef& def = def_of(flag);
    add_flag(std::string(def.name), std::string(def.metavar),
             std::string(def.help),
             [this, &def](const char* value, std::string* error) {
               if (!apply(def, value, engine_, error)) return false;
               engine_.given_ |= 1u << static_cast<unsigned>(def.flag);
               return true;
             });
  }
}

void CommandLine::add_flag(std::string name, std::string metavar,
                           std::string help, Apply apply) {
  flags_.push_back(
      {std::move(name), std::move(metavar), std::move(help), std::move(apply)});
}

void CommandLine::add_switch(std::string name, std::string help, bool* out) {
  add_flag(std::move(name), "", std::move(help),
           [out](const char*, std::string*) {
             *out = true;
             return true;
           });
}

void CommandLine::add_string(std::string name, std::string metavar,
                             std::string help, std::string* out) {
  add_flag(std::move(name), std::move(metavar), std::move(help),
           [out](const char* v, std::string*) {
             *out = v;
             return true;
           });
}

void CommandLine::add_count(std::string name, std::string metavar,
                            std::string help, std::uint64_t* out,
                            std::uint64_t min) {
  add_flag(name, std::move(metavar), std::move(help),
           [name, out, min](const char* v, std::string* error) {
             const auto c = parse_count(name, v, min, kNoMax, error);
             if (c) *out = *c;
             return c.has_value();
           });
}

std::optional<int> CommandLine::parse(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  const char* prog = program_.c_str();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      const bool engine =
          std::any_of(kEngineFlags.begin(), kEngineFlags.end(),
                      [&](const EngineFlagDef& f) { return f.name == arg; });
      std::fprintf(stderr,
                   engine ? "%s: %s is an engine flag this program does not "
                            "read (try --help)\n"
                          : "%s: unknown argument '%s' (try --help)\n",
                   prog, argv[i]);
      return 2;
    }
    const char* value = "";
    if (!flag->metavar.empty()) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires an argument\n", prog, argv[i]);
        return 2;
      }
      value = argv[++i];
    }
    std::string error;
    if (!flag->apply(value, &error)) {
      std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
      return 2;
    }
  }
  return std::nullopt;
}

void CommandLine::print_usage() const {
  for (std::size_t i = 0; i < synopsis_.size(); ++i) {
    std::printf("%s %s %s\n", i == 0 ? "usage:" : "      ", program_.c_str(),
                synopsis_[i].c_str());
  }
  std::printf("\n");
  for (const Flag& f : flags_) print_flag(f.name, f.metavar, f.help);
  print_flag("--help", "", "print this help and exit");
}

OpenedSession open_session(const CommandLine& cli,
                           telemetry::TelemetrySink* telemetry) {
  const EngineOptions& o = cli.engine();
  const char* tool = cli.tool().c_str();
  OpenedSession out;
  out.exit_code = 2;
  if (o.scenario.empty() && o.replay_path.empty()) {
    cli.print_usage();
    return out;
  }
  if (!o.scenario.empty() && !o.replay_path.empty()) {
    std::fprintf(stderr, "%s: --scenario and --replay are exclusive\n", tool);
    return out;
  }
  // Resolve the detector spec first so an unknown name is a usage error
  // carrying the registry, not a generic run failure.
  std::string error;
  if (build_detector(o.detector, &error) == nullptr) {
    std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
    return out;
  }
  out.exit_code = 1;

  SessionOptions sopts;
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
               .faults = o.faults,
               .telemetry = telemetry};

  if (o.scenario.empty()) {
    std::ifstream in(o.replay_path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open trace '%s'\n", tool,
                   o.replay_path.c_str());
      return out;
    }
    auto trace = net::read_trace(in, &error);
    if (!trace) {
      std::fprintf(stderr, "%s: %s: %s\n", tool, o.replay_path.c_str(),
                   error.c_str());
      return out;
    }
    // The header is what the recording ran at; another size changes the
    // simulation (bandwidth budget, summary), so a contradicting --n is
    // refused rather than silently replaying something else.
    if (o.n != 0 && trace->n != 0 && o.n != trace->n) {
      std::fprintf(stderr,
                   "%s: %s was recorded at n=%zu but --n %zu was given; a "
                   "mismatched size changes the simulation (bandwidth "
                   "budget, summary), so replay refuses.  Drop --n or "
                   "re-record.\n",
                   tool, o.replay_path.c_str(), trace->n, o.n);
      return out;
    }
    // Trace node ids are only bounded by 32 bits; the Session's node-cap
    // gate refuses before the simulator allocates per-node state.
    const std::size_t nodes = trace->nodes();
    out.session = Session::open(
        std::move(sopts),
        std::make_unique<net::ScriptedWorkload>(std::move(trace->rounds)),
        nodes, &error);
    out.label = "replay:" + o.replay_path;
  } else {
    sopts.scenario = o.scenario;
    out.session = Session::open(std::move(sopts), &error);
    if (out.session) out.label = out.session->scenario_spec();
  }
  if (!out.session) {
    std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
    return out;
  }
  out.exit_code = 0;
  return out;
}

int write_recorded_trace(const CommandLine& cli, const OpenedSession& opened) {
  const std::string& path = cli.engine().record_path;
  if (path.empty()) return 0;
  const char* tool = cli.tool().c_str();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write trace '%s'\n", tool, path.c_str());
    return 1;
  }
  const Session& session = *opened.session;
  net::write_trace(out, session.recorded(), session.nodes(),
                   cli.tool() + " trace of: " + opened.label);
  if (!out.good()) {
    std::fprintf(stderr, "%s: failed writing trace '%s'\n", tool,
                 path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace dynsub::detect
