// dynsub_perfbench -- one pass of the end-to-end benchmark.
//
//   dynsub_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Drives the daemon path a deployment runs: a churn scenario inside a
// detect::Session, served by a threaded serve::Server, with this process's
// main thread acting as one open-loop client.  Requests are scheduled at a
// fixed rate from the moment the first request is answered; each one's
// latency is measured from its *scheduled* send time, so a stall in the
// engine or in the generator shows up in every request it delays.
//
// The churn runs a fixed number of rounds, R = seconds x the workload's
// nominal round rate, so both builds of a comparison do identical work and
// every count is a pure function of (workload, seed, seconds).
//
// The end-to-end times are reported on the reference host's clock: a
// HostProbe measures the host's memory bandwidth on the measured thread
// during the measured interval, and each time is divided by how much slower
// than the reference host it ran.  The times as measured are printed too.
//
// Nothing under src/ is instrumented for this: layer timings come from
// calls timed here (a net::Workload decorator, client-side submits, query
// probes at the final barrier) and from a benchmark-owned TelemetrySink on
// SimulatorConfig::telemetry.  --trace 0 leaves the sink's timing channel
// off (the engine then makes no clock reads; the deterministic channel
// still feeds the correctness digest); --trace 1 turns it on and adds the
// shadow oracle graph.
//
// The last line of standard output is one JSON object (see run.py, which
// builds the benchmark's reported result from it).  Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_set.hpp"
#include "common/rng.hpp"
#include "core/audit.hpp"
#include "detect/session.hpp"
#include "harness/json.hpp"
#include "oracle/robust_sets.hpp"
#include "oracle/subgraphs.hpp"
#include "oracle/timestamped_graph.hpp"
#include "scenario/registry.hpp"
#include "serve/clock.hpp"
#include "serve/server.hpp"
#include "telemetry/sink.hpp"

namespace {

using namespace dynsub;

// ------------------------------------------------------------ workloads ----

struct WorkloadDef {
  const char* name;
  // churn(n=, target=, min=, max=): the target is reached within a few
  // hundred rounds and then held, so per-round cost stops growing.
  std::size_t n;
  std::size_t target;
  std::size_t min_changes;
  std::size_t max_changes;
  const char* detector;
  std::size_t threads;  // engine lanes (0 = sequential engine)
  std::size_t shards;
  double rate;            // open-loop requests per second
  double edge_share;      // share of edge queries
  double triangle_share;  // share of triangle queries; the rest are lists
  detect::QueryKind list_kind;
  // Workload rounds per second of --seconds.  Fixed, so the work done never
  // depends on the speed of the machine; on a 4-vCPU x86 KVM guest a pass
  // measured 0.5 to 1.7 times --seconds as the host's speed moved.
  double rounds_per_second;
  // Set-ups per pass; setup_s is their median.
  int setup_reps;
};

constexpr std::size_t kQueueCapacity = 1 << 16;

const WorkloadDef kWorkloads[] = {
    {"wide_churn", 1000000, 100000, 500, 1000, "triangle", 2, 1, 2000.0,
     0.90, 0.10, detect::QueryKind::kTriangle, 25.0, 15},
    {"dense_cycles", 20000, 40000, 200, 400, "robust3hop", 2, 1, 2000.0,
     0.90, 0.00, detect::QueryKind::kCycle4, 27.0, 101},
    {"serve_hot", 4096, 8192, 20, 60, "triangle", 0, 2, 100000.0, 0.80,
     0.15, detect::QueryKind::kTriangle, 800.0, 201},
};

// ------------------------------------------------------------- helpers ----

/// Exact nearest-rank quantile of raw samples (sorts `v`).
template <typename Samples>
double quantile(Samples& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// The process's current thread count (the "Threads:" line of
/// /proc/self/status; 0 if it cannot be read).
std::uint64_t thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------- host probe ----

/// The host-speed probe.  On a shared host the memory bandwidth one core
/// gets moves by tens of percent within seconds and minutes, as other guests
/// load the memory controllers and the last-level cache, and every round of
/// the program slows or speeds up with it.  A probe slice sums a fixed 512
/// KiB in order from a 128 MiB buffer, far past the last-level cache, so its
/// time follows the host's memory bandwidth and nothing of the program.
/// Slices are taken on the thread and in the stretch of time being measured:
/// on the engine thread every 10 ms or more of the measured window, and on
/// the main thread before each set-up.
class HostProbe {
 public:
  static constexpr std::size_t kBufferWords = std::size_t{1} << 24;
  static constexpr std::size_t kSliceWords = std::size_t{1} << 16;
  /// A slice on the reference host, a 4-vCPU Xeon (Sapphire Rapids) KVM
  /// guest: the unit the end-to-end times are reported in.
  static constexpr double kReferenceSliceNs = 60000.0;
  static constexpr std::uint64_t kEngineSpacingNs = 10000000;

  /// Allocates and touches the buffer, outside every timed interval.
  HostProbe() : buffer_(kBufferWords, 1) {}

  /// Streams one slice and returns its duration.
  std::uint64_t slice() {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t* words = buffer_.data() + offset_;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kSliceWords; ++i) sum += words[i];
    offset_ = (offset_ + kSliceWords) % kBufferWords;
    checksum_ = checksum_ + sum;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  [[nodiscard]] static double bytes() {
    return static_cast<double>(kBufferWords * sizeof(std::uint64_t));
  }

 private:
  std::vector<std::uint64_t> buffer_;
  std::size_t offset_ = 0;
  volatile std::uint64_t checksum_ = 0;
};

/// How much slower than the reference host a set of slices ran: the median
/// slice over the reference slice.
double slowdown(const std::vector<std::uint64_t>& slice_ns) {
  if (slice_ns.empty()) return 1.0;
  std::vector<double> v(slice_ns.begin(), slice_ns.end());
  return median(std::move(v)) / HostProbe::kReferenceSliceNs;
}

// ---------------------------------------------------------------- sink ----

/// The benchmark's TelemetrySink.  The deterministic channel feeds the
/// digest and the workload-end signal in both modes; the timing channel
/// (traced passes only) feeds the per-layer numbers.  Rounds after the
/// last workload round (the serve loop's quiet rounds) are ignored.
class BenchSink final : public telemetry::TelemetrySink {
 public:
  struct Digest {
    std::uint64_t changes = 0;
    std::uint64_t messages = 0;
    std::uint64_t payload_bits = 0;
    double amortized = 0.0;
    double amortized_sup = 0.0;
  };

  BenchSink(serve::WallClock& clock, Round last_round, bool timing)
      : clock_(clock), last_round_(last_round), timing_(timing) {}

  void on_lanes(std::size_t lanes) override { slot_ns_.assign(lanes, {}); }

  void on_round(const telemetry::RoundRecord& rec) override {
    const auto round = static_cast<Round>(rec.round);
    current_round_ = round + 1;
    if (round > last_round_) return;
    digest_.changes += rec.changes;
    digest_.messages += rec.messages;
    digest_.payload_bits += rec.payload_bits;
    retries_ += rec.transport_retries;
    if (round >= 2) {
      active_ += rec.active;
      stepped_ += rec.stepped;
    }
    if (timing_) {
      const std::uint64_t now = clock_.now_ns();
      if (round >= 2) tick_ns_.push_back(now - prev_round_ns_);
      prev_round_ns_ = now;
    }
    if (round == 1) round1_ns_.store(clock_.now_ns());
    if (round == last_round_) {
      digest_.amortized = rec.amortized;
      digest_.amortized_sup = rec.amortized_sup;
      last_round_ns_ = clock_.now_ns();
      done_.store(true, std::memory_order_release);
    }
  }

  void on_span(const telemetry::Span& span) override {
    // kReact/kReceive arrive concurrently from distinct slots and touch
    // only their own slot's row; everything else is barrier-side.
    const Round round = span.round != 0 ? static_cast<Round>(span.round)
                                        : current_round_;
    if (round < 2 || round > last_round_) return;
    slot_ns_[span.lane][static_cast<std::size_t>(span.phase)] += span.dur_ns;
    if (span.phase == telemetry::Phase::kRound) {
      round_span_ns_.push_back(span.dur_ns);
    }
  }

  void on_wire_bytes(std::uint64_t bytes) override {
    if (current_round_ >= 2 && current_round_ <= last_round_) {
      wire_bytes_ += bytes;
    }
  }

  [[nodiscard]] bool timing_enabled() const override { return timing_; }

  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t round1_ns() const { return round1_ns_.load(); }

  // Read only after the engine thread has been joined.
  [[nodiscard]] const Digest& digest() const { return digest_; }
  [[nodiscard]] std::uint64_t last_round_ns() const { return last_round_ns_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t active() const { return active_; }
  [[nodiscard]] std::uint64_t stepped() const { return stepped_; }
  [[nodiscard]] std::uint64_t wire_bytes() const { return wire_bytes_; }
  [[nodiscard]] std::vector<std::uint64_t>& tick_ns() { return tick_ns_; }
  [[nodiscard]] const std::vector<std::uint64_t>& round_span_ns() const {
    return round_span_ns_;
  }
  [[nodiscard]] const std::vector<std::array<std::uint64_t,
                                             telemetry::kPhaseCount>>&
  slot_ns() const {
    return slot_ns_;
  }

 private:
  serve::WallClock& clock_;
  const Round last_round_;
  const bool timing_;
  Round current_round_ = 1;
  Digest digest_;
  std::uint64_t retries_ = 0;
  std::uint64_t active_ = 0;
  std::uint64_t stepped_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t prev_round_ns_ = 0;
  std::uint64_t last_round_ns_ = 0;
  std::atomic<std::uint64_t> round1_ns_{0};
  std::atomic<bool> done_{false};
  std::vector<std::uint64_t> tick_ns_;
  std::vector<std::uint64_t> round_span_ns_;
  std::vector<std::array<std::uint64_t, telemetry::kPhaseCount>> slot_ns_;
};

// ------------------------------------------------------------ workload ----

/// Decorates the scenario's workload: publishes recently inserted edges
/// for the client to query, and in traced passes times the generator,
/// applies every batch to a shadow oracle graph (timed), and keeps the
/// batches for the answer check.
class MeteredWorkload final : public net::Workload {
 public:
  MeteredWorkload(std::unique_ptr<net::Workload> inner, std::size_t n,
                  bool traced, HostProbe& probe, Round last_round)
      : inner_(std::move(inner)),
        traced_(traced),
        probe_(probe),
        last_round_(last_round) {
    if (traced_) shadow_.emplace(n);
  }

  /// Starts the engine thread's probe slices (main thread, once the
  /// measured window opens).
  void open_window() { window_open_.store(true, std::memory_order_release); }

  [[nodiscard]] std::vector<EdgeEvent> next_round(
      const net::WorkloadObservation& obs) override {
    using SteadyClock = std::chrono::steady_clock;
    if (window_open_.load(std::memory_order_acquire) &&
        obs.next_round <= last_round_) {
      const auto now = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              SteadyClock::now().time_since_epoch())
              .count());
      if (now >= next_slice_ns_) {
        const std::uint64_t took = probe_.slice();
        probe_ns_.push_back(took);
        next_slice_ns_ = now + took + HostProbe::kEngineSpacingNs;
      }
    }
    SteadyClock::time_point t0;
    if (traced_) t0 = SteadyClock::now();
    std::vector<EdgeEvent> batch = inner_->next_round(obs);
    if (traced_) {
      const auto t1 = SteadyClock::now();
      for (const EdgeEvent& ev : batch) shadow_->apply(ev, obs.next_round);
      const auto t2 = SteadyClock::now();
      next_round_ns_ += ns_between(t0, t1);
      apply_ns_ += ns_between(t1, t2);
      batches_.push_back(batch);
    }
    events_ += batch.size();
    ++rounds_;
    const std::lock_guard<std::mutex> lock(ring_mu_);
    for (const EdgeEvent& ev : batch) {
      if (ev.kind != EventKind::kInsert) continue;
      if (ring_.size() < kRing) {
        ring_.push_back(ev.edge);
      } else {
        ring_[ring_next_] = ev.edge;
        ring_next_ = (ring_next_ + 1) % kRing;
      }
    }
    return batch;
  }

  [[nodiscard]] bool finished() const override { return inner_->finished(); }

  /// A recently inserted edge chosen by `draw` (client thread).
  [[nodiscard]] Edge pick(std::uint64_t draw) const {
    const std::lock_guard<std::mutex> lock(ring_mu_);
    if (ring_.empty()) return Edge(0, 1);
    return ring_[draw % ring_.size()];
  }

  // Read only after the engine thread has been joined.
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t next_round_ns() const { return next_round_ns_; }
  [[nodiscard]] std::uint64_t apply_ns() const { return apply_ns_; }
  [[nodiscard]] std::size_t shadow_edges() const {
    return shadow_ ? shadow_->edge_count() : 0;
  }
  [[nodiscard]] const std::vector<std::vector<EdgeEvent>>& batches() const {
    return batches_;
  }
  /// The engine thread's probe slices in the measured window.
  [[nodiscard]] const std::vector<std::uint64_t>& probe_ns() const {
    return probe_ns_;
  }

 private:
  static constexpr std::size_t kRing = 4096;

  static std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                                  std::chrono::steady_clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  std::unique_ptr<net::Workload> inner_;
  const bool traced_;
  std::optional<oracle::TimestampedGraph> shadow_;
  std::vector<std::vector<EdgeEvent>> batches_;
  std::uint64_t events_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t next_round_ns_ = 0;
  std::uint64_t apply_ns_ = 0;
  mutable std::mutex ring_mu_;
  std::vector<Edge> ring_;
  std::size_t ring_next_ = 0;
  HostProbe& probe_;
  const Round last_round_;
  std::atomic<bool> window_open_{false};
  std::uint64_t next_slice_ns_ = 0;
  std::vector<std::uint64_t> probe_ns_;
};

// --------------------------------------------------------------- stack ----

/// One Session + Server stack.  Heap-allocated and never moved: the
/// simulator keeps a pointer to the sink.
struct Stack {
  Stack(serve::WallClock& clock, Round last_round, bool traced)
      : sink(clock, last_round, traced) {}

  BenchSink sink;
  MeteredWorkload* workload = nullptr;  // owned by the session
  std::optional<detect::Session> session;
  std::unique_ptr<serve::Server> server;
};

struct SetupTimes {
  double setup_s = 0;      // open start -> first answered request
  double open_s = 0;       // Session::open
  double bootstrap_ms = 0;  // server start -> end of round 1
  Round first_round = 0;   // snapshot round of the first answer
  std::uint64_t first_answer_ns = 0;
};

std::unique_ptr<Stack> open_stack(const WorkloadDef& w, std::uint64_t seed,
                                  Round rounds, bool traced, HostProbe& probe,
                                  serve::WallClock& clock, SetupTimes& times,
                                  std::string& error) {
  const std::uint64_t t0 = clock.now_ns();
  auto stack = std::make_unique<Stack>(clock, rounds, traced);
  char spec[256];
  std::snprintf(spec, sizeof spec,
                "churn(n=%zu, target=%zu, min=%zu, max=%zu, rounds=%" PRId64
                ", seed=%" PRIu64 ")",
                w.n, w.target, w.min_changes, w.max_changes, rounds, seed);
  auto built = scenario::build_scenario(spec, {}, &error);
  if (!built) return nullptr;
  auto metered = std::make_unique<MeteredWorkload>(
      std::move(built->workload), built->nodes, traced, probe, rounds);
  stack->workload = metered.get();
  detect::SessionOptions opts;
  opts.detector = w.detector;
  opts.sim.threads = w.threads;
  opts.sim.shards = w.shards;
  opts.sim.telemetry = &stack->sink;
  stack->session = detect::Session::open(std::move(opts), std::move(metered),
                                         built->nodes, &error);
  if (!stack->session) return nullptr;
  const std::uint64_t t_open = clock.now_ns();

  serve::ServeConfig cfg;
  cfg.queue.capacity = kQueueCapacity;
  cfg.queue.policy = serve::OverflowPolicy::kShed;
  stack->server =
      std::make_unique<serve::Server>(*stack->session, clock, cfg);
  const std::uint64_t t_start = clock.now_ns();
  stack->server->start();

  // The first request: id 1, answered at the first barrier it meets.
  serve::Request first;
  first.kind = serve::RequestKind::kQuery;
  first.node = 0;
  first.query = detect::EdgeQuery{Edge(0, 1)};
  if (stack->server->submit(first)) {
    error = "the set-up request was shed";
    return nullptr;
  }
  for (;;) {
    const auto got = stack->server->take_responses();
    if (!got.empty()) {
      times.first_answer_ns = got.front().answer_ns;
      times.first_round = got.front().round;
      break;
    }
    std::this_thread::yield();
  }
  times.setup_s = secs(times.first_answer_ns - t0);
  times.open_s = secs(t_open - t0);
  times.bootstrap_ms =
      static_cast<double>(stack->sink.round1_ns() - t_start) / 1e6;
  return stack;
}

// -------------------------------------------------------------- client ----

enum class Kind : std::uint8_t { kEdge, kTriangle, kList };

struct SentRequest {
  NodeId lo = 0;
  NodeId hi = 0;
  Kind kind = Kind::kEdge;
};

struct EdgeCheck {
  NodeId lo;
  NodeId hi;
  Round round;
  bool present;
};

/// An append-only array allocated and touched up front, so that its share
/// of the peak resident set does not depend on how many entries a run
/// appends (past its capacity it grows like a vector).
template <typename T>
class Prefaulted {
 public:
  explicit Prefaulted(std::size_t capacity) : data_(capacity) {}

  void push_back(T v) {
    if (size_ < data_.size()) {
      data_[size_] = v;
    } else {
      data_.push_back(v);
    }
    ++size_;
  }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<T> view() { return {data_.data(), size_}; }

 private:
  std::vector<T> data_;
  std::size_t size_ = 0;
};

/// Everything the client observed about the request stream.  The arrays
/// every pass keeps are prefaulted for twice the nominal request count, so
/// the client's resident memory is the same on a slow and a fast host; the
/// traced-only logs are deques.
struct ClientLog {
  explicit ClientLog(std::size_t capacity)
      : answered(capacity), latency_ns(capacity) {}

  Prefaulted<std::uint8_t> answered;        // answers seen, by stream index
  Prefaulted<std::uint32_t> latency_ns;     // from the scheduled send time
  std::deque<SentRequest> sent;             // traced: by stream index
  std::deque<std::uint64_t> queue_wait_ns;  // traced: answer - arrival
  std::deque<std::uint64_t> submit_ns;      // traced: submit() call time
  std::deque<std::uint64_t> late_ns;        // traced: send - scheduled
  std::vector<EdgeCheck> checks;            // traced: edge answers
  std::uint64_t shed = 0;
  std::uint64_t refused = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unknown = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t rounds_waited = 0;
  std::uint64_t max_threads = 0;
};

/// Stream request j has request id j + 2 (id 1 is the set-up probe).
constexpr std::uint64_t kFirstStreamId = 2;

/// Scheduled send time of stream request j: a fixed-rate open loop.
std::uint64_t scheduled_ns(std::uint64_t t_gen0, double interval_ns,
                           std::size_t j) {
  return t_gen0 +
         static_cast<std::uint64_t>(static_cast<double>(j + 1) * interval_ns);
}

void absorb(const serve::Response& r, std::uint64_t t_gen0,
            double interval_ns, bool traced, ClientLog& log) {
  if (r.id < kFirstStreamId || r.id - kFirstStreamId >= log.answered.size()) {
    ++log.unknown;
    return;
  }
  const std::size_t j = r.id - kFirstStreamId;
  if (log.answered[j]++ != 0) {
    ++log.duplicates;
    return;
  }
  if (r.status == serve::Status::kShed) {
    ++log.shed;
    return;
  }
  if (!r.detail.empty()) {
    ++log.refused;
    return;
  }
  // Latencies above 2^32 ns (4.3 s) are clamped; none occur at these rates.
  const std::uint64_t sched = scheduled_ns(t_gen0, interval_ns, j);
  const std::uint64_t latency = r.answer_ns > sched ? r.answer_ns - sched : 0;
  log.latency_ns.push_back(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(latency, UINT32_MAX)));
  // Barriers crossed since the one completed before the request arrived.
  log.rounds_waited +=
      static_cast<std::uint64_t>(r.round - (r.arrival_round - 1));
  if (r.answer == net::Answer::kInconsistent) {
    ++log.inconsistent;
    return;
  }
  if (!traced) return;
  log.queue_wait_ns.push_back(r.answer_ns - r.arrival_ns);
  const SentRequest& req = log.sent[j];
  if (req.kind == Kind::kEdge) {
    log.checks.push_back(
        {req.lo, req.hi, r.round, r.answer == net::Answer::kTrue});
  }
}

serve::Request make_request(const WorkloadDef& w, const MeteredWorkload& wl,
                            Rng& rng, SentRequest& out) {
  serve::Request req;
  const double u = rng.next_double();
  const Edge e = wl.pick(rng.next_u64());
  const NodeId v = rng.next_bool(0.5) ? e.lo() : e.hi();
  out.lo = e.lo();
  out.hi = e.hi();
  if (u < w.edge_share) {
    out.kind = Kind::kEdge;
    req.kind = serve::RequestKind::kQuery;
    req.node = v;
    req.query = detect::EdgeQuery{e};
  } else if (u < w.edge_share + w.triangle_share) {
    out.kind = Kind::kTriangle;
    const NodeId a = e.other(v);
    const Edge f = wl.pick(rng.next_u64());
    NodeId b = rng.next_bool(0.5) ? f.lo() : f.hi();
    while (b == v || b == a) b = static_cast<NodeId>((b + 1) % w.n);
    req.kind = serve::RequestKind::kQuery;
    req.node = v;
    req.query = detect::TriangleQuery{a, b};
  } else {
    out.kind = Kind::kList;
    req.kind = serve::RequestKind::kList;
    req.node = v;
    req.list_kind = w.list_kind;
  }
  return req;
}

/// Open-loop generation from the first answered barrier until the last
/// workload round completes.
void generate(const WorkloadDef& w, std::uint64_t seed, Stack& stack,
              serve::WallClock& clock, std::uint64_t t_gen0, bool traced,
              ClientLog& log) {
  Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
  const double interval_ns = 1e9 / w.rate;
  std::uint64_t next_poll = t_gen0;
  std::uint64_t next_thread_sample = t_gen0;
  log.max_threads = thread_count();
  for (std::size_t j = 0;; ++j) {
    const std::uint64_t sched = scheduled_ns(t_gen0, interval_ns, j);
    std::uint64_t now = clock.now_ns();
    while (now < sched) {
      if (stack.sink.done()) return;
      if (now >= next_poll) {
        for (const auto& r : stack.server->take_responses()) {
          absorb(r, t_gen0, interval_ns, traced, log);
        }
        next_poll = now + 2000000;
      }
      if (now >= next_thread_sample) {
        log.max_threads = std::max(log.max_threads, thread_count());
        next_thread_sample = now + 500000000;
      }
      const std::uint64_t wait = sched - now;
      if (wait > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 150000));
      } else {
        std::this_thread::yield();
      }
      now = clock.now_ns();
    }
    if (stack.sink.done()) return;
    SentRequest sent;
    serve::Request req = make_request(w, *stack.workload, rng, sent);
    if (traced) log.sent.push_back(sent);
    log.answered.push_back(0);
    const std::uint64_t t_send = clock.now_ns();
    auto refused = stack.server->submit(std::move(req));
    if (traced) {
      log.submit_ns.push_back(clock.now_ns() - t_send);
      log.late_ns.push_back(t_send - sched);
    }
    if (refused) absorb(*refused, t_gen0, interval_ns, traced, log);
  }
}

// -------------------------------------------------------------- checks ----

/// The oracle audit.  Session::audit() wherever it fits a run's time
/// budget.  robust3hop's audit recomputes hop_edges -- a BFS plus a scan of
/// every edge -- three times per node, O(n (n + m)) in all (about two
/// minutes at n = 20000), so that detector checks the same two bounds on a
/// seeded sample of nodes and runs the cycle-listing audit in full.
std::optional<std::string> audit(const WorkloadDef& w,
                                 const detect::Session& session,
                                 std::uint64_t seed) {
  if (std::strcmp(w.detector, "robust3hop") != 0) return session.audit();
  const auto& sim = session.sim();
  const auto& g = sim.graph();
  const auto& gp = sim.prev_graph();
  Rng rng(seed ^ 0xa0d17);
  constexpr int kSample = 192;
  for (int i = 0; i < kSample; ++i) {
    const auto v = static_cast<NodeId>(rng.next_below(sim.node_count()));
    const auto listed = session.list(v, detect::QueryKind::kEdge);
    if (!listed) continue;  // inconsistent: nothing to audit
    FlatSet<Edge> actual;
    for (const auto& t : *listed) actual.insert(Edge(t[0], t[1]));
    // Lower bound: R^{v,2}_i u (R^{v,3}_{i-1} \ R^{v,2}_{i-1}).
    FlatSet<Edge> lower = oracle::robust_2hop(g, v);
    const FlatSet<Edge> r2_prev = oracle::robust_2hop(gp, v);
    for (const Edge& e : oracle::robust_3hop(gp, v)) {
      if (!r2_prev.contains(e)) lower.insert(e);
    }
    // Upper bound: E^{v,2}_i u (E^{v,3}_{i-1} \ E^{v,2}_{i-1}).
    FlatSet<Edge> upper = oracle::hop_edges(g, v, 2);
    const FlatSet<Edge> e2_prev = oracle::hop_edges(gp, v, 2);
    for (const Edge& e : oracle::hop_edges(gp, v, 3)) {
      if (!e2_prev.contains(e)) upper.insert(e);
    }
    for (const Edge& e : lower) {
      if (!actual.contains(e)) {
        return "node " + std::to_string(v) + ": robust edge missing";
      }
    }
    for (const Edge& e : actual) {
      if (!upper.contains(e)) {
        return "node " + std::to_string(v) + ": edge outside 3-hop window";
      }
    }
  }
  return core::audit_cycle_listing(sim);
}

/// Counts edge answers on consistent nodes that disagree with the shadow
/// oracle's edge history at the answer's snapshot round.
std::uint64_t edge_answer_mismatches(
    const std::vector<EdgeCheck>& checks,
    const std::vector<std::vector<EdgeEvent>>& batches) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<Round, bool>>>
      history;
  for (const EdgeCheck& c : checks) history.try_emplace(Edge(c.lo, c.hi).key());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    for (const EdgeEvent& ev : batches[i]) {
      const auto it = history.find(ev.edge.key());
      if (it == history.end()) continue;
      it->second.emplace_back(static_cast<Round>(i + 1),
                              ev.kind == EventKind::kInsert);
    }
  }
  std::uint64_t mismatches = 0;
  for (const EdgeCheck& c : checks) {
    bool present = false;  // the graph starts empty
    for (const auto& [round, inserted] : history[Edge(c.lo, c.hi).key()]) {
      if (round > c.round) break;
      present = inserted;
    }
    if (present != c.present) ++mismatches;
  }
  return mismatches;
}

// -------------------------------------------------------------- output ----

void put(harness::Json& obj, const char* key, double v) {
  obj[key] = harness::Json::number(v);
}

double per(double num, double den) { return num / std::max(1.0, den); }

/// The per-layer metrics of a traced pass, read before teardown.
void layer_metrics(const WorkloadDef& w, detect::Session& session,
                   Stack& stack, ClientLog& log,
                   const serve::ServeStats& serve_stats,
                   const harness::RunSummary& summary, Round rounds,
                   double audit_s, const std::vector<double>& open_s,
                   const std::vector<double>& bootstrap_ms,
                   std::uint64_t seed, harness::Json& out) {
  const BenchSink& sink = stack.sink;
  const MeteredWorkload& wl = *stack.workload;
  const auto steady = static_cast<double>(rounds - 1);
  const auto wl_rounds = static_cast<double>(wl.rounds());
  const auto events = static_cast<double>(wl.events());

  std::array<double, telemetry::kPhaseCount> phase_ns{};
  double slot_max = 0, slot_sum = 0;
  for (const auto& s : sink.slot_ns()) {
    for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
      phase_ns[p] += static_cast<double>(s[p]);
    }
    const auto work = static_cast<double>(
        s[static_cast<std::size_t>(telemetry::Phase::kReact)] +
        s[static_cast<std::size_t>(telemetry::Phase::kReceive)]);
    slot_max = std::max(slot_max, work);
    slot_sum += work;
  }
  const auto phase = [&](telemetry::Phase p) {
    return phase_ns[static_cast<std::size_t>(p)];
  };
  std::vector<std::uint64_t>& ticks = stack.sink.tick_ns();
  double tick_sum = 0, span_sum = 0;
  for (const std::uint64_t t : ticks) tick_sum += static_cast<double>(t);
  for (const std::uint64_t t : sink.round_span_ns()) {
    span_sum += static_cast<double>(t);
  }
  // Between two round barriers: the drain, the generator and shadow apply
  // in the decorator, and the round itself.  The rest is the serve loop.
  const double decorator_ns =
      per(static_cast<double>(wl.next_round_ns() + wl.apply_ns()), wl_rounds);
  const double drain_ns =
      per(tick_sum - span_sum, static_cast<double>(ticks.size())) -
      decorator_ns;

  // Query and listing probes at the final barrier.
  Rng rng(seed ^ 0x9b0be5);
  constexpr int kQueries = 20000;
  constexpr int kLists = 2000;
  std::vector<std::pair<NodeId, Edge>> qs;
  for (int i = 0; i < kQueries; ++i) {
    const Edge e = wl.pick(rng.next_u64());
    qs.emplace_back(rng.next_bool(0.5) ? e.lo() : e.hi(), e);
  }
  using Steady = std::chrono::steady_clock;
  auto t0 = Steady::now();
  for (const auto& [v, e] : qs) (void)session.query(v, detect::EdgeQuery{e});
  auto t1 = Steady::now();
  const double query_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kQueries;
  t0 = Steady::now();
  for (int i = 0; i < kLists; ++i) {
    (void)session.list(qs[static_cast<std::size_t>(i)].first, w.list_kind);
  }
  t1 = Steady::now();
  const double list_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / kLists;

  const auto answered = static_cast<double>(log.latency_ns.size());
  auto latency = log.latency_ns.view();
  const BenchSink::Digest& d = sink.digest();
  put(out, "scenario.next_round_us",
          per(static_cast<double>(wl.next_round_ns()) / 1e3, wl_rounds));
  put(out, "scenario.events_per_round", per(events, wl_rounds));
  put(out, "oracle.apply_ns_per_event",
          per(static_cast<double>(wl.apply_ns()), events));
  put(out, "oracle.edges", static_cast<double>(wl.shadow_edges()));
  put(out, "net.tick_p50_ms", quantile(ticks, 0.50) / 1e6);
  put(out, "net.tick_p90_ms", quantile(ticks, 0.90) / 1e6);
  put(out, "net.phase.apply_ms", phase(telemetry::Phase::kApply) / steady / 1e6);
  put(out, "net.phase.react_ms", phase(telemetry::Phase::kReact) / steady / 1e6);
  put(out, "net.phase.exchange_ms",
          phase(telemetry::Phase::kExchange) / steady / 1e6);
  put(out, "net.phase.route_ms", phase(telemetry::Phase::kRoute) / steady / 1e6);
  put(out, "net.phase.receive_ms",
          phase(telemetry::Phase::kReceive) / steady / 1e6);
  put(out, "net.phase.barrier_ms",
          phase(telemetry::Phase::kBarrier) / steady / 1e6);
  put(out, "net.slot_imbalance",
          slot_sum > 0 ? slot_max * static_cast<double>(sink.slot_ns().size()) /
                             slot_sum
                       : 1.0);
  put(out, "net.active_per_round", static_cast<double>(sink.active()) / steady);
  put(out, "net.stepped_per_round",
          static_cast<double>(sink.stepped()) / steady);
  put(out, "net.messages_per_round",
          static_cast<double>(d.messages) / static_cast<double>(rounds));
  put(out, "net.payload_bits_per_round",
          static_cast<double>(d.payload_bits) / static_cast<double>(rounds));
  put(out, "net.wire_bytes_per_round",
          static_cast<double>(sink.wire_bytes()) / steady);
  put(out, "net.transport_retries", static_cast<double>(sink.retries()));
  put(out, "core.react_ns_per_active",
          per(phase(telemetry::Phase::kReact),
              static_cast<double>(sink.active())));
  put(out, "core.receive_ns_per_stepped",
          per(phase(telemetry::Phase::kReceive),
              static_cast<double>(sink.stepped())));
  put(out, "detect.query_ns", query_ns);
  put(out, "detect.list_us", list_us);
  put(out, "detect.audit_s", audit_s);
  put(out, "detect.inconsistent_frac",
          per(static_cast<double>(log.inconsistent), answered));
  put(out, "detect.amortized", summary.amortized);
  put(out, "detect.amortized_sup", summary.amortized_sup);
  put(out, "serve.submit_ns_p50", quantile(log.submit_ns, 0.50));
  put(out, "serve.submit_ns_p99", quantile(log.submit_ns, 0.99));
  put(out, "serve.queue_wait_us_p50", quantile(log.queue_wait_ns, 0.50) / 1e3);
  put(out, "serve.drain_us_per_round", drain_ns / 1e3);
  put(out, "serve.rounds_waited_mean",
          per(static_cast<double>(log.rounds_waited), answered));
  put(out, "serve.backlog_peak", static_cast<double>(serve_stats.backlog_peak));
  put(out, "serve.shed", static_cast<double>(serve_stats.shed));
  put(out, "serve.gen_late_us_p99", quantile(log.late_ns, 0.99) / 1e3);
  put(out, "serve.answer_p99_us", quantile(latency, 0.99) / 1e3);
  put(out, "serve.answer_p999_us", quantile(latency, 0.999) / 1e3);
  put(out, "serve.answer_samples", answered);
  put(out, "setup.open_s", median(open_s));
  put(out, "setup.bootstrap_ms", median(bootstrap_ms));
}

// ---------------------------------------------------------------- main ----

int usage(const char* msg) {
  std::fprintf(stderr,
               "dynsub_perfbench: %s\nusage: dynsub_perfbench --workload "
               "wide_churn|dense_cycles|serve_hot --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  return 2;
}

int run(const WorkloadDef& w, std::uint64_t seed, double seconds,
        bool traced) {
  const Round rounds = std::max<Round>(
      50, static_cast<Round>(std::llround(seconds * w.rounds_per_second)));
  serve::WallClock clock;
  std::vector<std::string> errors;
  HostProbe probe;

  // Set-ups: every repetition builds the full stack and waits for its
  // first answer; the last one goes on to serve the workload.  Probe
  // slices run before each, outside its timed interval.
  std::vector<double> setup_s, open_s, bootstrap_ms;
  std::vector<std::uint64_t> setup_probe_ns;
  const int slices_per_setup = std::max(3, 150 / w.setup_reps);
  std::unique_ptr<Stack> stack;
  SetupTimes times;
  std::uint64_t t_main0 = 0;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    stack.reset();
    std::string error;
    for (int i = 0; i < slices_per_setup; ++i) {
      setup_probe_ns.push_back(probe.slice());
    }
    t_main0 = clock.now_ns();
    stack = open_stack(w, seed, rounds, traced, probe, clock, times, error);
    if (!stack) {
      std::fprintf(stderr, "dynsub_perfbench: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(times.setup_s);
    open_s.push_back(times.open_s);
    bootstrap_ms.push_back(times.bootstrap_ms);
  }

  // The measured window: open-loop requests until the last workload round.
  ClientLog log(static_cast<std::size_t>(2 * w.rate * seconds));
  const std::uint64_t t_gen0 = times.first_answer_ns;
  stack->workload->open_window();
  generate(w, seed, *stack, clock, t_gen0, traced, log);
  stack->server->stop();
  const std::uint64_t t_stopped = clock.now_ns();
  for (const auto& r : stack->server->take_responses()) {
    absorb(r, t_gen0, 1e9 / w.rate, traced, log);
  }
  const serve::ServeStats serve_stats = stack->server->stats();

  // Correctness, outside every timed window.
  detect::Session& session = *stack->session;
  const BenchSink& sink = stack->sink;
  const MeteredWorkload& wl = *stack->workload;
  if (wl.rounds() != static_cast<std::uint64_t>(rounds) || !sink.done()) {
    errors.push_back("workload ran " + std::to_string(wl.rounds()) +
                     " rounds, expected " + std::to_string(rounds));
  }
  session.run_until_stable(100000);
  if (!session.settled()) errors.push_back("network did not settle");
  const auto t_audit0 = std::chrono::steady_clock::now();
  if (auto bad = audit(w, session, seed)) errors.push_back("audit: " + *bad);
  const double audit_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_audit0)
                             .count();
  std::uint64_t unanswered = 0;
  for (const std::uint8_t a : log.answered.view()) unanswered += a == 0 ? 1 : 0;
  if (unanswered + log.duplicates + log.unknown != 0) {
    errors.push_back("exactly-once: " + std::to_string(unanswered) +
                     " unanswered, " + std::to_string(log.duplicates) +
                     " duplicated, " + std::to_string(log.unknown) +
                     " unknown responses");
  }
  if (serve_stats.shed != log.shed) {
    errors.push_back("server counted " + std::to_string(serve_stats.shed) +
                     " sheds, client saw " + std::to_string(log.shed));
  }
  if (sink.retries() != 0) {
    errors.push_back("transport retried " + std::to_string(sink.retries()) +
                     " times on a fault-free run");
  }
  const std::uint64_t threads_budget = std::min<std::uint64_t>(
      3, 2 + (w.threads > 1 ? w.threads - 1 : 0));
  if (log.max_threads > threads_budget) {
    errors.push_back("ran " + std::to_string(log.max_threads) +
                     " threads, budget " + std::to_string(threads_budget));
  }
  if (traced) {
    if (const auto bad = edge_answer_mismatches(log.checks, wl.batches())) {
      errors.push_back(std::to_string(bad) + " of " +
                       std::to_string(log.checks.size()) +
                       " edge answers disagree with the shadow graph");
    }
  }
  const harness::RunSummary summary = session.summary();

  // The digest: the deterministic channel at the last workload round plus
  // the settled network's cumulative accounting.
  const BenchSink::Digest& d = sink.digest();
  char digest[512];
  std::snprintf(digest, sizeof digest,
                "changes=%" PRIu64 " messages=%" PRIu64
                " payload_bits=%" PRIu64
                " amortized=%.17g amortized_sup=%.17g final_messages=%" PRIu64
                " final_amortized=%.17g final_sup=%.17g",
                d.changes, d.messages, d.payload_bits, d.amortized,
                d.amortized_sup, summary.messages, summary.amortized,
                summary.amortized_sup);

  // The engine thread's probe slices fall inside the window; their time is
  // the benchmark's, not the program's.
  const std::vector<std::uint64_t> window_probe_ns = wl.probe_ns();
  std::uint64_t window_probe_total = 0;
  for (const std::uint64_t ns : window_probe_ns) window_probe_total += ns;
  const Round window_rounds = rounds - times.first_round;
  const double window_s =
      secs(sink.last_round_ns() - times.first_answer_ns - window_probe_total);
  harness::Json layers = harness::Json::object();
  if (traced) {
    layer_metrics(w, session, *stack, log, serve_stats, summary, rounds,
                  audit_s, open_s, bootstrap_ms, seed, layers);
    // The shadow graph's apply as a share of the traced window: the
    // tracing work timed in one pass (the engine's span clock reads are
    // not included).
    put(layers, "trace.overhead_frac", secs(wl.apply_ns()) / window_s);
  }

  // Teardown is part of wall_s; the peak resident set is read after it.
  const auto t_down0 = std::chrono::steady_clock::now();
  stack.reset();
  const double teardown_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t_down0)
                                .count();

  // The end-to-end metrics as measured, and on the reference host's clock:
  // set-up times divided by the set-up slices' slowdown, window times by the
  // engine slices'.  The probe's buffer is left out of the resident set.
  const double setup_slowdown = slowdown(setup_probe_ns);
  const double window_slowdown = slowdown(window_probe_ns);
  harness::Json measured = harness::Json::object();
  put(measured, "setup_s", median(setup_s));
  put(measured, "wall_s",
      secs(t_stopped - t_main0 - window_probe_total) + teardown_s);
  put(measured, "rounds_per_sec",
      static_cast<double>(window_rounds) / window_s);
  auto latency = log.latency_ns.view();
  put(measured, "answer_p50_us", quantile(latency, 0.50) / 1e3);
  put(measured, "answer_p90_us", quantile(latency, 0.90) / 1e3);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  put(measured, "peak_rss_mb",
      (static_cast<double>(usage.ru_maxrss) * 1024.0 - HostProbe::bytes()) /
          (1024.0 * 1024.0));
  harness::Json e2e = harness::Json::object();
  put(e2e, "setup_s", measured["setup_s"].as_number() / setup_slowdown);
  for (const char* time : {"wall_s", "answer_p50_us", "answer_p90_us"}) {
    put(e2e, time, measured[time].as_number() / window_slowdown);
  }
  put(e2e, "rounds_per_sec",
      measured["rounds_per_sec"].as_number() * window_slowdown);
  put(e2e, "peak_rss_mb", measured["peak_rss_mb"].as_number());

  harness::Json out = harness::Json::object();
  out["workload"] = harness::Json::string(w.name);
  put(out, "seed", static_cast<double>(seed));
  put(out, "rounds", static_cast<double>(rounds));
  put(out, "traced", traced ? 1 : 0);
  put(out, "threads", static_cast<double>(log.max_threads));
  put(out, "nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  put(out, "attempted", static_cast<double>(log.answered.size()));
  put(out, "failed", static_cast<double>(log.shed + log.refused + unanswered));
  put(out, "answer_samples", static_cast<double>(log.latency_ns.size()));
  harness::Json& reps = out["setup_s_reps"] = harness::Json::array();
  for (const double s : setup_s) reps.push_back(harness::Json::number(s));
  out["digest"] = harness::Json::string(digest);
  harness::Json& error_list = out["errors"] = harness::Json::array();
  for (const std::string& e : errors) {
    error_list.push_back(harness::Json::string(e));
  }
  if (traced) put(layers, "host.slowdown", window_slowdown);
  put(out, "setup_slowdown", setup_slowdown);
  put(out, "window_slowdown", window_slowdown);
  put(out, "window_probe_slices", static_cast<double>(window_probe_ns.size()));
  out["measured"] = std::move(measured);
  out["e2e"] = std::move(e2e);
  out["layers"] = std::move(layers);
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadDef* workload = nullptr;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<bool> traced;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) return usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(*seconds > 0) || *seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      traced = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == nullptr || !seed || !seconds || !traced) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  return run(*workload, *seed, *seconds, *traced);
}
