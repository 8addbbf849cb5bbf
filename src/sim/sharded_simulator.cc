#include "sim/sharded_simulator.h"

#include <algorithm>
#include <atomic>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/logging.h"

namespace chiller::sim {

namespace {

/// Wait budgets before a waiter parks on the futex. A window at 8 nodes
/// carries ~10 us of event work, so a waiter usually sees the hand-off
/// inside the pause loop; the yields cover a peer that was briefly
/// descheduled. Fixed: the right values depend on the host, not the model.
constexpr int kSpinPauses = 256;
constexpr int kSpinYields = 64;

/// Simulator threads alive in this process: coordinator plus workers of
/// every multi-shard ShardedSimulator. Once it exceeds the hardware thread
/// count, a spinning waiter can hold the very core the thread it waits for
/// needs, so every waiter parks at once instead.
std::atomic<uint32_t> live_sim_threads{0};

bool SpinningCanPay() {
  static const uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return live_sim_threads.load(std::memory_order_relaxed) <= hw;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Blocks until done(word) holds: spins, then yields, then parks in
/// atomic::wait (futex-backed, rechecks the value, so a notify that lands
/// before the sleep is not lost).
template <typename Done>
void SpinThenPark(const std::atomic<uint32_t>& word, Done done) {
  if (SpinningCanPay()) {
    for (int i = 0; i < kSpinPauses; ++i) {
      if (done(word.load(std::memory_order_acquire))) return;
      CpuRelax();
    }
    for (int i = 0; i < kSpinYields; ++i) {
      if (done(word.load(std::memory_order_acquire))) return;
      std::this_thread::yield();
    }
  }
  for (;;) {
    const uint32_t v = word.load(std::memory_order_acquire);
    if (done(v)) return;
    word.wait(v, std::memory_order_acquire);
  }
}

/// Per-thread execution context, set while a thread runs a shard's window:
/// a worker for its whole life, the coordinating thread only while it runs
/// shard 0. Otherwise (owner == nullptr here) the coordinating thread uses
/// the simulator's global state.
struct Tls {
  const ShardedSimulator* owner = nullptr;
  uint32_t shard = 0;
  SimTime now = 0;
  DomainId domain = kControlDomain;
};

thread_local Tls tls;

}  // namespace

/// Two one-way edges per window. Open() publishes the window to the
/// workers; each worker Arrive()s once its shard has drained it, and
/// AwaitWorkers() returns after the last one has. The generation bump and
/// the arrival count are seq_cst read-modify-writes, so they are ordered
/// before the notifier's check for sleeping waiters (which the waiter
/// registers seq_cst before it sleeps): a wake-up is never lost.
class ShardedSimulator::WindowSync {
 public:
  explicit WindowSync(uint32_t workers) : workers_(workers) {}

  /// Coordinator, with every worker waiting: everything written before the
  /// call (window bounds, refilled queues, exit_) is visible to a worker
  /// once its AwaitOpen returns.
  void Open() {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_seq_cst);
    generation_.notify_all();
  }

  /// Worker: waits until the coordinator has opened its `n`-th window
  /// (1-based; the destructor's exit release counts as one).
  void AwaitOpen(uint32_t n) {
    SpinThenPark(generation_, [n](uint32_t g) { return g == n; });
  }

  /// Worker: its shard is done with the current window.
  void Arrive() {
    if (arrived_.fetch_add(1, std::memory_order_seq_cst) + 1 == workers_) {
      arrived_.notify_all();
    }
  }

  /// Coordinator: returns once every worker has arrived; their shards'
  /// queues and outboxes are then the coordinator's to read.
  void AwaitWorkers() {
    const uint32_t all = workers_;
    SpinThenPark(arrived_, [all](uint32_t n) { return n == all; });
  }

 private:
  const uint32_t workers_;
  alignas(64) std::atomic<uint32_t> generation_{0};
  alignas(64) std::atomic<uint32_t> arrived_{0};
};

ShardedSimulator::ShardedSimulator(uint32_t num_shards, uint32_t num_domains)
    : num_shards_(num_shards),
      shards_(num_shards),
      seq_(num_domains, 0) {
  CHILLER_CHECK(num_shards >= 1);
  CHILLER_CHECK(num_domains >= 1);
  for (Shard& s : shards_) s.outbox.resize(num_shards_);
  if (num_shards_ > 1) {
    live_sim_threads.fetch_add(num_shards_, std::memory_order_relaxed);
    sync_ = std::make_unique<WindowSync>(num_shards_ - 1);
    threads_.reserve(num_shards_ - 1);
    for (uint32_t s = 1; s < num_shards_; ++s) {
      threads_.emplace_back([this, s] { WorkerLoop(s); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (sync_ != nullptr) {
    exit_ = true;
    sync_->Open();  // release the workers; they observe exit_
    for (std::thread& t : threads_) t.join();
    live_sim_threads.fetch_sub(num_shards_, std::memory_order_relaxed);
  }
}

SimTime ShardedSimulator::now() const {
  if (tls.owner == this) return tls.now;
  return global_now_;
}

DomainId ShardedSimulator::current_domain() const {
  if (tls.owner == this) return tls.domain;
  // The coordinator runs control events and external calls; both are
  // control-plane by definition.
  return kControlDomain;
}

void ShardedSimulator::ScheduleIn(DomainId domain, SimTime when,
                                  std::function<void()> fn) {
  CHILLER_CHECK(domain < seq_.size()) << "unknown domain " << domain;
  const SimTime t_now = now();
  const DomainId origin = current_domain();
  CHILLER_CHECK(when >= t_now)
      << "scheduling into the past: " << when << " < " << t_now;
  CHILLER_DCHECK(lookahead() == 0 || origin == kControlDomain ||
                 domain == kControlDomain || domain == origin ||
                 when >= WindowEnd(t_now))
      << "cross-domain event inside a lookahead window: " << origin << " -> "
      << domain << " at " << when;
  const uint64_t seq = NextSeq(origin);
  if (tls.owner == this) {
    // Inside a shard's window: same-shard events go straight into its
    // queue; anything else parks in a mailbox until the window boundary.
    Shard& self = shards_[tls.shard];
    if (domain == kControlDomain) {
      self.control_outbox.push_back(
          Pending{when, domain, origin, seq, std::move(fn)});
    } else if (ShardOfDomain(domain) == tls.shard) {
      self.queue.Push(when, domain, origin, seq, std::move(fn));
    } else {
      self.outbox[ShardOfDomain(domain)].push_back(
          Pending{when, domain, origin, seq, std::move(fn)});
    }
    return;
  }
  // Coordinator between windows: every worker waits, so destination queues
  // are ours to touch directly.
  if (domain == kControlDomain) {
    control_queue_.Push(when, domain, origin, seq, std::move(fn));
  } else {
    shards_[ShardOfDomain(domain)].queue.Push(when, domain, origin, seq,
                                              std::move(fn));
  }
}

void ShardedSimulator::ScheduleControl(SimTime delay,
                                       std::function<void()> fn) {
  ScheduleIn(kControlDomain, ControlFireTime(delay), std::move(fn));
}

void ShardedSimulator::RunWindow(uint32_t s) {
  Shard& shard = shards_[s];
  while (!shard.queue.empty() && shard.queue.NextTime() < window_end_ &&
         shard.queue.NextTime() <= window_until_) {
    Event e = shard.queue.Pop();
    tls.now = e.time;
    tls.domain = e.domain;
    shard.last_time = e.time;
    ++shard.processed;
    e.fn();
  }
  tls.domain = kControlDomain;
}

void ShardedSimulator::WorkerLoop(uint32_t s) {
  tls.owner = this;
  tls.shard = s;
  for (uint32_t window = 1;; ++window) {
    sync_->AwaitOpen(window);  // coordinator published window bounds
    if (exit_) break;
    RunWindow(s);
    sync_->Arrive();  // window done; the coordinator may drain our outbox
  }
}

void ShardedSimulator::DrainMailboxes() {
  for (Shard& src : shards_) {
    for (uint32_t d = 0; d < num_shards_; ++d) {
      for (Pending& p : src.outbox[d]) {
        shards_[d].queue.Push(p.when, p.domain, p.origin, p.seq,
                              std::move(p.fn));
      }
      src.outbox[d].clear();
    }
    for (Pending& p : src.control_outbox) {
      control_queue_.Push(p.when, p.domain, p.origin, p.seq, std::move(p.fn));
    }
    src.control_outbox.clear();
  }
}

void ShardedSimulator::Drive(SimTime until, bool run_all) {
  CHILLER_CHECK(num_shards_ == 1 || lookahead() > 0)
      << "multi-shard execution requires a lookahead";
  for (;;) {
    const SimTime tc = control_queue_.NextTime();
    SimTime td = kSimTimeNever;
    for (const Shard& s : shards_) td = std::min(td, s.queue.NextTime());
    const SimTime next = std::min(tc, td);
    if (next == kSimTimeNever) break;
    if (!run_all && next > until) break;
    if (tc <= td) {
      // Control batch: the control domain sorts before data at equal time,
      // and runs only between windows, while every worker waits.
      Event e = control_queue_.Pop();
      global_now_ = e.time;
      ++control_processed_;
      e.fn();
      continue;
    }
    // Data window containing the earliest data event. Idle windows are
    // skipped by construction (k jumps straight to td's window).
    const SimTime la = lookahead();
    window_end_ = la == 0 ? kSimTimeNever : (td / la + 1) * la;
    window_until_ = run_all ? kSimTimeNever : until;
    if (sync_ != nullptr) sync_->Open();
    // The coordinating thread runs shard 0 itself, under the same
    // per-thread context a worker has, so now()/current_domain()/routing
    // behave identically on every shard.
    tls.owner = this;
    tls.shard = 0;
    RunWindow(0);
    tls.owner = nullptr;
    if (sync_ != nullptr) sync_->AwaitWorkers();
    for (const Shard& s : shards_) {
      global_now_ = std::max(global_now_, s.last_time);
    }
    DrainMailboxes();
  }
}

void ShardedSimulator::Run() { Drive(kSimTimeNever, /*run_all=*/true); }

void ShardedSimulator::RunUntil(SimTime until) {
  Drive(until, /*run_all=*/false);
  global_now_ = std::max(global_now_, until);
}

void ShardedSimulator::Clear() {
  for (Shard& s : shards_) {
    while (!s.queue.empty()) s.queue.Pop();
    for (auto& box : s.outbox) box.clear();
    s.control_outbox.clear();
  }
  while (!control_queue_.empty()) control_queue_.Pop();
}

uint64_t ShardedSimulator::events_processed() const {
  uint64_t total = control_processed_;
  for (const Shard& s : shards_) total += s.processed;
  return total;
}

bool ShardedSimulator::idle() const {
  if (!control_queue_.empty()) return false;
  for (const Shard& s : shards_) {
    if (!s.queue.empty()) return false;
  }
  return true;
}

}  // namespace chiller::sim
