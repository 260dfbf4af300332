#include "net/trace.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/format.hpp"

namespace dynsub::net {

std::size_t Trace::nodes() const {
  if (n != 0) return n;
  std::size_t max_id = 0;
  for (const auto& batch : rounds) {
    for (const auto& ev : batch) {
      max_id = std::max<std::size_t>(max_id, ev.edge.hi());
    }
  }
  return max_id + 1;
}

void write_trace(std::ostream& os,
                 std::span<const std::vector<EdgeEvent>> rounds,
                 std::size_t n, std::string_view comment) {
  if (!comment.empty()) os << "# " << comment << '\n';
  if (n != 0) os << "# n=" << n << '\n';
  for (const auto& batch : rounds) {
    bool first = true;
    for (const auto& ev : batch) {
      if (!first) os << ' ';
      os << (ev.kind == EventKind::kInsert ? '+' : '-') << ev.edge.lo()
         << ':' << ev.edge.hi();
      first = false;
    }
    os << '\n';
  }
}

std::optional<Trace> read_trace(std::istream& is, std::string* error) {
  auto fail = [&](std::size_t line_no,
                  const std::string& what) -> std::optional<Trace> {
    if (error) {
      std::ostringstream os;
      os << "trace line " << line_no << ": " << what;
      *error = os.str();
    }
    return std::nullopt;
  };

  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  // The header lives in the leading comment block; a "# n=" comment after
  // the first round line is an ordinary comment.
  bool in_header = true;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line[0] == '#') {
      if (in_header && line.rfind("# n=", 0) == 0) {
        const auto v = parse_u64(std::string_view(line).substr(4));
        if (!v || *v == 0) {
          return fail(line_no, "corrupt trace header '" + line +
                                   "' (want '# n=<count>', count >= 1)");
        }
        trace.n = static_cast<std::size_t>(*v);
      }
      continue;
    }
    in_header = false;
    std::vector<EdgeEvent> batch;
    std::istringstream tokens(line);
    std::string tok;
    while (tokens >> tok) {
      if (tok.size() < 4 || (tok[0] != '+' && tok[0] != '-')) {
        return fail(line_no, "bad event token '" + tok + "'");
      }
      const auto colon = tok.find(':');
      if (colon == std::string::npos || colon == 1 ||
          colon + 1 >= tok.size()) {
        return fail(line_no, "bad event token '" + tok + "'");
      }
      // parse_u64 is strict (digits only, no wrap-around), which keeps
      // signs, hex, and overflow out of replayed traces.
      const auto a = parse_u64(std::string_view(tok).substr(1, colon - 1));
      const auto b = parse_u64(std::string_view(tok).substr(colon + 1));
      if (!a || !b) {
        return fail(line_no, "bad node id in '" + tok + "'");
      }
      constexpr std::uint64_t kMaxNodeId = std::numeric_limits<NodeId>::max();
      if (*a > kMaxNodeId || *b > kMaxNodeId) {
        return fail(line_no, "node id out of range in '" + tok + "'");
      }
      if (*a == *b) return fail(line_no, "self loop in '" + tok + "'");
      const Edge e(static_cast<NodeId>(*a), static_cast<NodeId>(*b));
      // A replay sized by the header would index past the network.
      if (trace.n != 0 && e.hi() >= trace.n) {
        return fail(line_no, "'" + tok + "' names node " +
                                 std::to_string(e.hi()) +
                                 " but the header says n=" +
                                 std::to_string(trace.n) +
                                 "; the trace is corrupt or hand-edited");
      }
      batch.push_back(
          {e, tok[0] == '+' ? EventKind::kInsert : EventKind::kDelete});
    }
    trace.rounds.push_back(std::move(batch));
  }
  return trace;
}

}  // namespace dynsub::net
