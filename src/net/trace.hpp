// Event-trace recording and replay.
//
// Every simulation is driven by a per-round stream of edge events; traces
// make that stream a first-class artifact: record any workload (including
// the adaptive adversaries, whose behaviour depends on the algorithm under
// test) and replay it bit-for-bit later -- against a different algorithm,
// in a regression test, or attached to a bug report.  The stale-relay
// races documented in DESIGN.md were minimized exactly this way.
//
// Format: plain text, one line per round; each event is `+a:b` (insert) or
// `-a:b` (delete), space separated; an empty line is a quiet round; lines
// starting with '#' are comments.  A comment `# n=<count>` in the leading
// comment block is the header: the node count the recording ran at, so a
// replay reproduces the exact network size (idle top ids included).
// Example:
//
//     # three rounds
//     # n=3
//     +0:1 +0:2
//
//     -0:1
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/edge.hpp"
#include "net/workload.hpp"

namespace dynsub::net {

/// A parsed trace: the per-round batches (rounds[i] is the batch of round
/// i+1) and the node count its "# n=" header declares.
struct Trace {
  /// The header's node count; 0 when the trace carries no header.
  std::size_t n = 0;
  std::vector<std::vector<EdgeEvent>> rounds;

  /// Nodes a replay needs: the header's n, or for a headerless trace the
  /// largest event id + 1 (at least 1).
  [[nodiscard]] std::size_t nodes() const;
};

/// Serializes per-round batches to the text format above, preceded by
/// `# <comment>` when `comment` is non-empty and by the `# n=<n>` header
/// when n > 0.
void write_trace(std::ostream& os,
                 std::span<const std::vector<EdgeEvent>> rounds,
                 std::size_t n = 0, std::string_view comment = {});

/// Parses a trace; returns std::nullopt (and sets `error` when given) on
/// malformed input: a bad event token, a corrupt or zero `# n=` header,
/// or an event naming a node at or past the header's n.
[[nodiscard]] std::optional<Trace> read_trace(std::istream& is,
                                              std::string* error = nullptr);

/// Wraps a workload, recording every batch it emits; `rounds()` is a
/// complete trace of the run afterwards.
class RecordingWorkload final : public Workload {
 public:
  explicit RecordingWorkload(Workload& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<EdgeEvent> next_round(
      const WorkloadObservation& obs) override {
    auto batch = inner_.next_round(obs);
    rounds_.push_back(batch);
    return batch;
  }

  [[nodiscard]] bool finished() const override { return inner_.finished(); }

  [[nodiscard]] const std::vector<std::vector<EdgeEvent>>& rounds() const {
    return rounds_;
  }

 private:
  Workload& inner_;
  std::vector<std::vector<EdgeEvent>> rounds_;
};

}  // namespace dynsub::net
