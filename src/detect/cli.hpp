// One engine front end: the flag table every command line shares, and the
// session opener the tools share.
//
// dynsub_run, dynsub_serve and every bench drive the same engine, so they
// read the same engine flags (--threads, --shards, --faults, --seed, ...).
// Each engine flag is defined once, in the table behind EngineFlag: its
// name, value kind, range and help line.  A front end names the engine
// flags it actually reads; any other engine flag is refused (exit 2), never
// silently ignored.  Flags only one front end has (--requests, --policy,
// --list, ...) are registered on the same CommandLine, so --help prints one
// table:
//
//   detect::CommandLine cli("dynsub_serve", {"--scenario <spec> [options]"},
//                           {EngineFlag::kScenario, EngineFlag::kThreads});
//   cli.add_switch("--stdin", "daemon mode", &use_stdin);
//   if (const auto code = cli.parse(argc, argv)) return *code;
//   auto opened = detect::open_session(cli, nullptr);
//   if (!opened.session) return opened.exit_code;
//
// Exit codes: 2 for usage errors (a bad flag, an unknown detector, both or
// neither of --scenario / --replay), 1 for run failures (an unreadable or
// corrupt trace, a --n that contradicts the trace header, a bad scenario).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "detect/session.hpp"
#include "net/faults.hpp"

namespace dynsub::detect {

/// The engine flags; the table in cli.cpp holds each one's definition.
enum class EngineFlag : std::uint8_t {
  kScenario,    // --scenario S
  kReplay,      // --replay PATH
  kDetector,    // --detector D
  kN,           // --n N
  kThreads,     // --threads T, 0..256
  kShards,      // --shards S, 1..64
  kFaults,      // --faults F (net::parse_fault_plan)
  kSeed,        // --seed S
  kQuick,       // --quick
  kMaxRounds,   // --max-rounds R
  kRecord,      // --record PATH
  kJson,        // --json PATH
  kTelemetry,   // --telemetry PATH
};

/// The values of the engine flags, at their defaults until parsed.
struct EngineOptions {
  std::string scenario;
  std::string replay_path;
  std::string detector = "triangle";
  std::size_t n = 0;
  std::size_t threads = 0;
  std::size_t shards = 1;
  net::FaultPlan faults{};
  std::uint64_t seed = 1;
  bool quick = false;
  std::size_t max_rounds = 1000000;
  std::string record_path;
  std::string json_path;
  std::string telemetry_path;

  /// True when the command line set `flag` (a bench keeps its own default
  /// otherwise).
  [[nodiscard]] bool given(EngineFlag flag) const {
    return (given_ >> static_cast<unsigned>(flag)) & 1u;
  }

 private:
  friend class CommandLine;
  std::uint32_t given_ = 0;
};

/// One program's command line: the engine flags it reads plus its own.
/// Parsing is strict: an unknown flag, an engine flag the program does not
/// read, a missing value or a value out of range all stop with exit 2.
class CommandLine {
 public:
  /// Parses a flag's value; returns false and sets `error` to the reason
  /// when the value is refused.
  using Apply = std::function<bool(const char* value, std::string* error)>;

  /// `tool` prefixes run-time errors; `synopsis` lists the usage lines
  /// after the program name; `reads` names the engine flags this program
  /// reads, in --help order.
  CommandLine(std::string tool, std::vector<std::string> synopsis,
              const std::vector<EngineFlag>& reads);
  CommandLine(const CommandLine&) = delete;  // flags_ point at engine_
  CommandLine& operator=(const CommandLine&) = delete;

  /// Registers a flag of this program only, listed by --help after the
  /// engine flags.  An empty `metavar` makes it a switch (`apply` then gets
  /// an empty value).
  void add_flag(std::string name, std::string metavar, std::string help,
                Apply apply);
  void add_switch(std::string name, std::string help, bool* out);
  void add_string(std::string name, std::string metavar, std::string help,
                  std::string* out);
  /// A strict unsigned integer of at least `min`.
  void add_count(std::string name, std::string metavar, std::string help,
                 std::uint64_t* out, std::uint64_t min = 0);

  /// Parses argv.  Returns std::nullopt to go on, or the exit code to stop
  /// with: 0 after --help (usage on stdout), 2 after a refused flag (the
  /// reason on stderr).
  [[nodiscard]] std::optional<int> parse(int argc, char** argv);

  /// The usage block --help prints (stdout).
  void print_usage() const;

  [[nodiscard]] const EngineOptions& engine() const { return engine_; }
  [[nodiscard]] const std::string& tool() const { return tool_; }

 private:
  struct Flag {
    std::string name;
    std::string metavar;
    std::string help;
    Apply apply;
  };

  std::string tool_;
  std::string program_;  // argv[0] once parsed, else tool_
  std::vector<std::string> synopsis_;
  std::vector<Flag> flags_;  // the engine flags read, then this program's
  EngineOptions engine_;
};

/// A session opened from a tool's engine flags.
struct OpenedSession {
  std::optional<Session> session;  // empty on failure
  /// What the run reports as its scenario: the expanded spec, or
  /// "replay:<path>".
  std::string label;
  /// The exit code to stop with when `session` is empty.
  int exit_code = 0;
};

/// Opens the Session `cli`'s engine flags describe: --scenario, or a
/// --replay of a recorded trace sized by its "# n=" header.  Resolves the
/// detector first, refuses both or neither of --scenario / --replay and a
/// --n that differs from the trace header, and attaches `telemetry`
/// (nullable) to the simulator.  On failure prints the reason (usage when
/// neither source was given) and sets exit_code.
[[nodiscard]] OpenedSession open_session(const CommandLine& cli,
                                         telemetry::TelemetrySink* telemetry);

/// Writes the session's event trace to --record's path (no-op without
/// --record) with the "# n=" header a replay sizes itself by.  Returns the
/// exit code: 0, or 1 after printing why the trace could not be written.
[[nodiscard]] int write_recorded_trace(const CommandLine& cli,
                                       const OpenedSession& opened);

}  // namespace dynsub::detect
