// EXP-C1 -- Corollary 1: k-clique membership listing in O(1) amortized
// rounds for every k >= 3.
//
// Plants k-cliques (one edge per round, so all insertion orders occur),
// churns them, and reports amortized complexity per k across sizes -- plus
// the per-node listing volume, demonstrating that the same triangle
// structure serves every clique size without extra communication.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "detect/detector.hpp"
#include "scenario/registry.hpp"

namespace dynsub {
namespace {

constexpr std::size_t kCliqueSizes[] = {3, 4, 5, 6};

struct Cell {
  double amortized = 0;
  std::size_t cliques_listed = 0;
};

Cell run(std::size_t n, std::size_t k, std::size_t rounds,
         std::uint64_t base_seed) {
  // Constant plant count: constant change rate across n.  The workload
  // comes from the scenario registry, so this sweep point is exactly
  // `dynsub_run --scenario '<spec>'` with the same string.
  const std::string spec =
      "planted-clique(n=" + std::to_string(n) + ", k=" + std::to_string(k) +
      ", plants=2, noise=2, period=" + std::to_string(8 + k * (k - 1) / 2) +
      ", rounds=" + std::to_string(rounds) +
      ", seed=" + std::to_string(base_seed + n * 7 + k) + ")";
  auto built = bench::build_scenario_or_die(spec);
  // The algorithm comes from the detector registry, and the clique count
  // from its uniform list() surface (clique size is the detector's typed
  // k parameter) -- no concrete node type appears in this bench.
  const auto detector = bench::build_detector_or_die(
      "triangle(k=" + std::to_string(k) + ")");
  telemetry::TelemetryRecorder rec(bench::kTimingRecorder);
  net::Simulator sim(n, detector->factory(),
                     {.enforce_bandwidth = true,
                      .track_prev_graph = false,
                      .telemetry = &rec});
  bench::run_timed(sim, rec, *built.workload, 1000000);
  Cell cell;
  cell.amortized = sim.metrics().amortized();
  for (NodeId v = 0; v < n; ++v) {
    // The drain leaves every node consistent; list() refuses (nullopt)
    // otherwise rather than listing from an inconsistent snapshot.
    if (const auto tuples = detector->list(sim, v, detect::QueryKind::kClique)) {
      cell.cliques_listed += tuples->size();
    }
  }
  return cell;
}

}  // namespace
}  // namespace dynsub

int main(int argc, char** argv) {
  using namespace dynsub;
  bench::Bench bench(argc, argv, "c1_clique", "EXP-C1",
                     "Corollary 1: k-clique membership listing (k = 3..6)",
                     "one triangle-membership structure answers every clique "
                     "size in O(1) amortized rounds (flat in n for every k)",
                     {detect::EngineFlag::kSeed});
  const auto sizes =
      bench.sweep<std::size_t>({32, 64, 128, 256, 512}, {32, 64});
  const std::size_t rounds_per_run = bench.quick() ? 120 : 300;

  const std::size_t rows = sizes.size();
  const std::size_t cols = std::size(kCliqueSizes);
  const std::uint64_t base_seed = bench.seed_or(0xC11);
  std::vector<Cell> cells(rows * cols);
  harness::parallel_for(rows * cols, [&](std::size_t idx) {
    cells[idx] = run(sizes[idx / cols], kCliqueSizes[idx % cols],
                     rounds_per_run, base_seed);
  });

  std::vector<harness::Series> series;
  std::vector<harness::Series> volume;
  for (std::size_t c = 0; c < cols; ++c) {
    harness::Series s{"k=" + std::to_string(kCliqueSizes[c]),
                      std::vector<harness::SeriesPoint>(rows)};
    harness::Series vol{"k=" + std::to_string(kCliqueSizes[c]) + " listed",
                        std::vector<harness::SeriesPoint>(rows)};
    for (std::size_t r = 0; r < rows; ++r) {
      s.points[r] = {static_cast<double>(sizes[r]),
                     cells[r * cols + c].amortized};
      vol.points[r] = {static_cast<double>(sizes[r]),
                       static_cast<double>(cells[r * cols + c].cliques_listed)};
    }
    series.push_back(std::move(s));
    volume.push_back(std::move(vol));
  }
  bench.report("n", series);
  bench.report_json_only("n", volume);

  std::printf("\nlisting volume (clique memberships reported, final round):\n");
  for (std::size_t r = 0; r < rows; ++r) {
    std::printf("  n=%-5zu", sizes[r]);
    for (std::size_t c = 0; c < cols; ++c) {
      std::printf("  k=%zu:%-6zu", kCliqueSizes[c],
                  cells[r * cols + c].cliques_listed);
    }
    std::printf("\n");
  }
  return bench.finish();
}
