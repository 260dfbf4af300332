#include "harness/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "common/format.hpp"

namespace dynsub::harness {

RunSummary summarize(const net::Simulator& sim) {
  const net::Metrics& m = sim.metrics();
  RunSummary s;
  s.n = sim.node_count();
  s.rounds = m.rounds();
  s.changes = m.changes();
  s.inconsistent_rounds = m.inconsistent_rounds();
  s.amortized = m.amortized();
  s.amortized_sup = m.amortized_sup();
  s.per_node_sup = m.per_node_amortized_sup();
  s.messages = m.messages();
  s.payload_bits = m.payload_bits();
  const net::TransportStats& x = m.transport();
  s.transport_retries = x.retries;
  s.transport_redeliveries = x.redeliveries;
  s.transport_corruptions = x.corruptions;
  s.transport_drops = x.drops;
  s.transport_lost_batches = x.lost_batches;
  s.transport_recovery_events = x.recovery_events;
  return s;
}

RunSummary summarize_timed(const net::Simulator& sim, double wall_seconds) {
  RunSummary s = summarize(sim);
  s.wall_seconds = wall_seconds;
  if (wall_seconds > 0) {
    s.rounds_per_sec = static_cast<double>(s.rounds) / wall_seconds;
  }
  return s;
}

std::string render_results_table(const std::string& x_name,
                                 const std::vector<Series>& series) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{x_name};
  for (const auto& s : series) header.push_back(s.name);
  rows.push_back(header);
  const std::size_t npts = series.empty() ? 0 : series[0].points.size();
  for (std::size_t i = 0; i < npts; ++i) {
    std::vector<std::string> row;
    row.push_back(format_double(series[0].points[i].x, 0));
    for (const auto& s : series) {
      DYNSUB_CHECK(s.points.size() == npts);
      row.push_back(format_double(s.points[i].y, 3));
    }
    rows.push_back(std::move(row));
  }
  return render_table(rows);
}

std::string ascii_chart(const std::vector<Series>& series, std::size_t width,
                        std::size_t height) {
  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  for (const auto& s : series) {
    for (const auto& p : s.points) {
      xmin = std::min(xmin, p.x);
      xmax = std::max(xmax, p.x);
      ymin = std::min(ymin, p.y);
      ymax = std::max(ymax, p.y);
    }
  }
  if (xmin > xmax) return "(no data)\n";
  if (xmax <= xmin) xmax = xmin + 1;
  if (ymax <= ymin) ymax = ymin + 1;

  std::vector<std::string> grid(height, std::string(width, ' '));
  const char* glyphs = "*o+x#@";
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char g = glyphs[si % 6];
    for (const auto& p : series[si].points) {
      const auto cx = static_cast<std::size_t>(
          std::lround((p.x - xmin) / (xmax - xmin) * (width - 1)));
      const auto cy = static_cast<std::size_t>(
          std::lround((p.y - ymin) / (ymax - ymin) * (height - 1)));
      grid[height - 1 - cy][cx] = g;
    }
  }
  std::ostringstream os;
  os << format_double(ymax, 2) << '\n';
  for (const auto& line : grid) os << '|' << line << '\n';
  os << '+' << std::string(width, '-') << '\n';
  os << format_double(ymin, 2) << "  x: [" << format_double(xmin, 0) << ", "
     << format_double(xmax, 0) << "]  legend:";
  for (std::size_t si = 0; si < series.size(); ++si) {
    os << ' ' << glyphs[si % 6] << '=' << series[si].name;
  }
  os << '\n';
  return os.str();
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  std::size_t nthreads = threads == 0
                             ? std::max(1u, std::thread::hardware_concurrency())
                             : threads;
  nthreads = std::min(nthreads, count);
  if (nthreads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        body(i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

double log_log_slope(const Series& series) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t m = 0;
  for (const auto& p : series.points) {
    if (p.x <= 0 || p.y <= 0) continue;
    const double lx = std::log(p.x);
    const double ly = std::log(p.y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++m;
  }
  if (m < 2) return 0.0;
  const double denom = static_cast<double>(m) * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return 0.0;
  return (static_cast<double>(m) * sxy - sx * sy) / denom;
}

}  // namespace dynsub::harness
