// Multi-threaded conservative-synchronization simulator: the same event
// semantics as sim::Simulator, executed across real threads.
#ifndef CHILLER_SIM_SHARDED_SIMULATOR_H_
#define CHILLER_SIM_SHARDED_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/scheduler.h"

namespace chiller::sim {

/// Runs the event space partitioned into shards, one event queue and one
/// clock per shard, on exactly `num_shards` threads: the coordinating
/// thread (the one calling Run/RunUntil) runs shard 0 itself, and
/// `num_shards - 1` std::thread workers run shards 1..n-1. Domains map
/// statically to shards (domain d > 0 lives on shard (d - 1) % num_shards;
/// the control domain lives on the coordinating thread). Shards advance in
/// lock-step *windows* bounded by the lookahead grid: within a window
/// [kL, (k+1)L) every shard drains its own events concurrently; at the
/// boundary the workers wait — spinning briefly, then parking — while the
/// coordinator drains the cross-shard mailboxes and runs any due control
/// events. Cross-shard messages carry at least one lookahead of simulated
/// latency, so nothing a shard does in window k can affect another shard
/// before window k+1 — each shard can run its window without looking at
/// the others.
///
/// Determinism: every event carries the canonical (time, domain, origin,
/// seq) key (see sim/scheduler.h). Keys are unique and assigned by
/// per-domain counters that do not depend on thread interleaving, each
/// shard pops its queue in canonical key order, and same-time events in
/// different data domains touch disjoint state. The execution is therefore
/// byte-identical to the single-threaded Simulator's total order — for any
/// shard count and any thread schedule.
class ShardedSimulator : public Scheduler {
 public:
  /// `num_domains` must cover every DomainId that will ever be scheduled
  /// (control + one per node). Spawns `num_shards - 1` worker threads; with
  /// one shard there are none and no window ever synchronizes.
  ShardedSimulator(uint32_t num_shards, uint32_t num_domains);
  ~ShardedSimulator() override;
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  SimTime now() const override;
  DomainId current_domain() const override;

  void ScheduleIn(DomainId domain, SimTime when,
                  std::function<void()> fn) override;
  void ScheduleControl(SimTime delay, std::function<void()> fn) override;

  void Run() override;
  void RunUntil(SimTime until) override;
  void Clear() override;

  uint64_t events_processed() const override;
  bool idle() const override;

  uint32_t num_shards() const { return num_shards_; }

 private:
  /// An event in flight between shards, parked in a mailbox until the next
  /// window boundary. Carries the full canonical key assigned at send time.
  struct Pending {
    SimTime when;
    DomainId domain;
    DomainId origin;
    uint64_t seq;
    std::function<void()> fn;
  };

  /// Everything the thread running a shard touches during a window. Padded
  /// so two shards never share a cache line through this struct.
  struct alignas(64) Shard {
    EventQueue queue;
    /// outbox[d]: events bound for shard d; single-producer (the thread
    /// running this shard), drained by the coordinator between windows.
    std::vector<std::vector<Pending>> outbox;
    std::vector<Pending> control_outbox;
    uint64_t processed = 0;
    SimTime last_time = 0;
  };

  uint32_t ShardOfDomain(DomainId d) const { return (d - 1) % num_shards_; }
  uint64_t NextSeq(DomainId origin) { return seq_[origin]++; }

  /// The window hand-off between the coordinator and the workers; defined
  /// in sharded_simulator.cc.
  class WindowSync;

  /// Drains shard `s`'s events with time < window_end and time <= until.
  /// Runs on the shard's worker thread (shard 0: the coordinating thread).
  void RunWindow(uint32_t s);

  /// Coordinator: moves every outbox entry into its destination queue.
  /// Runs only while all workers wait between windows.
  void DrainMailboxes();

  void WorkerLoop(uint32_t s);

  /// Advances until queues drain (run_all) or the next event exceeds
  /// `until`; shared body of Run and RunUntil.
  void Drive(SimTime until, bool run_all);

  const uint32_t num_shards_;
  std::vector<Shard> shards_;
  EventQueue control_queue_;
  std::vector<uint64_t> seq_;  ///< per-origin-domain schedule counters

  SimTime global_now_ = 0;
  uint64_t control_processed_ = 0;
  /// Bounds of the current window, written by the coordinator before it
  /// opens the window to the workers.
  SimTime window_end_ = 0;
  SimTime window_until_ = 0;
  bool exit_ = false;

  std::unique_ptr<WindowSync> sync_;  ///< null when num_shards_ == 1
  std::vector<std::thread> threads_;  ///< workers for shards 1..n-1
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_SHARDED_SIMULATOR_H_
