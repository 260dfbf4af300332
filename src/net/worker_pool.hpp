// A persistent, fixed-size fork-join pool for the parallel round engine.
//
// The round engine's Phase 1 (react_and_send) and Phase 3
// (receive_and_update) are embarrassingly parallel -- each node touches
// only its own program state and read-only routing buffers -- but they run
// up to millions of times per second, so the pool is built for cheap
// repeated dispatch rather than generality:
//
//   * `lanes` execution lanes are fixed at construction: lane 0 is the
//     calling thread, lanes 1..lanes-1 are worker threads parked on a
//     condition variable between dispatches (no per-round thread spawn),
//   * run_tasks(count, fn) splits the task range [0, count) -- the
//     engine's W = shards x lanes staging slots -- into `lanes`
//     *contiguous* runs (run s = [count*s/lanes, count*(s+1)/lanes)) and
//     blocks until every run finished -- the barrier's mutex hand-off is
//     the happens-before edge that lets the caller read worker-written
//     state,
//   * the engine, not the pool, fixes which nodes a slot covers; the pool
//     only picks the thread that runs it.  Whether a round forks at all
//     is the engine's call too (SimulatorConfig::threads_inline_cutoff):
//     an inline round runs the same slots on the calling thread.
//
// The pool deliberately has no queue: exactly one task is in flight, which
// is all a lockstep round engine can use and keeps dispatch to one lock +
// one broadcast.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dynsub::telemetry {
class TelemetrySink;
}  // namespace dynsub::telemetry

namespace dynsub::net {

class WorkerPool {
 public:
  /// A task body: processes tasks [begin, end) on execution lane `lane`
  /// (0 = the calling thread).  Must tolerate concurrent invocation on
  /// disjoint ranges; the lane index lets bodies use lane-local state
  /// (outbox scratch) with no sharing.
  using ShardFn =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  /// Spawns lanes - 1 worker threads (lanes >= 1; lanes == 1 degenerates
  /// to running everything on the calling thread).
  explicit WorkerPool(std::size_t lanes);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t lanes() const { return workers_.size() + 1; }

  /// Default for SimulatorConfig::threads_inline_cutoff: rounds with at
  /// most this many nodes to step run their slots inline on the calling
  /// thread -- a condvar fork-join costs microseconds, a few dozen node
  /// steps cost nanoseconds each.  Results are identical either way (the
  /// inline path only picks which thread executes a slot, never the
  /// slots), so tests that want to *race* every dispatch pass 0.
  static constexpr std::size_t kInlineCutoff = 32;

  /// Runs fn over the task range [0, count) split into lanes() contiguous
  /// runs, lane 0 on the calling thread, and returns only after every run
  /// completed.  Empty runs are skipped; a pool with no workers runs
  /// everything inline.
  void run_tasks(std::size_t count, const ShardFn& fn);

  /// Attach a TIMING-enabled telemetry sink (or nullptr to detach): each
  /// pooled dispatch then emits a lane-0 kBarrier span covering the time
  /// the calling thread spent waiting on the join after finishing its own
  /// run -- the direct read on lost parallelism from slot imbalance.
  /// The caller must have verified timing_enabled(); the pool never
  /// touches the clock when no sink is attached.
  void set_telemetry(telemetry::TelemetrySink* sink) { telemetry_ = sink; }

 private:
  void worker_loop(std::size_t lane, std::size_t lanes);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const ShardFn* task_ = nullptr;  // valid while generation_ is current
  std::size_t task_count_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  telemetry::TelemetrySink* telemetry_ = nullptr;  // not owned
  std::vector<std::thread> workers_;
};

}  // namespace dynsub::net
