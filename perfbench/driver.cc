// perfbench_driver: runs one benchmark workload (a fixed set of scenarios)
// and prints its metrics as one JSON line on stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-dir DIR]
//
// Every layer is timed from outside, around the public call that enters
// it: the scenario wiring of runner::ScenarioRunner::Wire is replayed step
// by step (workload factory, cluster construction, data load, protocol and
// driver), the simulated window runs through cc::Driver (or
// migrate::AdaptiveController::RunFor), and ScenarioEnv's members are
// destroyed one by one. Host spans around those calls give setup /
// simulate / teardown and each layer's self time; the public counters give
// the work each layer did.
//
// A run makes passes over the workload's scenarios, one after another.
// --trace 0 makes max(3, seconds / pass_s) timed passes (fewer, but at
// least three, if they would overrun --seconds by 15%) and reports the
// end-to-end metrics: host times over the timed passes (see HostMetrics),
// modeled (simulated-time) results from pass 0, which every later pass must
// reproduce exactly.
//
// --trace 1 makes a cold pass, one timed untraced pass, one pass with
// transaction tracing on, and runs every scenario once more through
// ScenarioRunner::Run; all must agree on every modeled result. It reports
// the per-layer metrics and writes the host spans and the simulated-time
// trace as Chrome trace files into --trace-dir.
//
// Output checks (any failure exits 1): after each scenario of pass 0
// drains, no store holds a lock and every replica equals its primary; the
// adaptive workload keeps its record count across migration; later passes
// and the traced run reproduce pass 0's modeled results.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cc/load_model.h"
#include "chiller/two_region.h"
#include "common/json.h"
#include "migrate/adaptive_controller.h"
#include "obs/trace_recorder.h"
#include "reducers.h"
#include "runner/registry.h"
#include "runner/runner.h"
#include "runner/sweep.h"
#include "schedule/scheduler.h"

namespace perfbench {
namespace {

using chiller::Histogram;
using chiller::kMicrosecond;
using chiller::kMillisecond;
using chiller::SimTime;
using chiller::Status;
using chiller::StatusOr;
using chiller::runner::ScenarioSpec;

constexpr double kMiB = 1024.0 * 1024.0;
/// Host-span granularity of simulated windows.
constexpr SimTime kSlice = 500 * kMicrosecond;
/// Traced runs record every engine's 4th logical transaction.
constexpr uint32_t kTraceSampleEvery = 4;
/// Open-loop grid of ycsb-open, offered txn/s. Fixed (not derived from a
/// capacity probe) and spanning the workload's ~0.9 M tps capacity.
constexpr double kOpenGrid[] = {300e3, 400e3, 500e3, 600e3,  700e3,
                                800e3, 900e3, 1000e3, 1100e3, 1200e3};
/// Layers whose host self time is reported; span names are
/// "<layer>.<call>"; the phase roots are runner.{setup,simulate,teardown}.
const char* const kLayers[] = {"runner", "workload", "storage", "cc",
                               "controller"};
const char* const kSimSpans[] = {"queue_wait", "attempt", "inner_region",
                                 "commit_phase", "retry_backoff"};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<ScenarioSpec> specs;
  /// Host seconds one pass took on the machine that defined the benchmark
  /// (NOTES.md). --seconds / pass_s fixes the number of timed passes, so
  /// the count does not depend on the speed of the program under test.
  double pass_s = 1.0;
};

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  std::vector<ScenarioSpec>& specs = w.specs;
  if (name == "tpcc-fig9") {
    // Figure 9's comparison at 4 open txns per engine: 2PL vs Chiller on
    // one dataset, on the sharded simulator. 8 warehouses, not the paper's
    // 80: the 684 MB 80-warehouse dataset is DRAM-bound, and neighbours'
    // memory traffic spread its host times by 20-25% between runs.
    w.pass_s = 0.95;
    for (const char* proto : {"2pl", "chiller"}) {
      ScenarioSpec spec;
      spec.label = proto;
      spec.workload = "tpcc";
      spec.protocol = proto;
      spec.nodes = 8;
      spec.engines_per_node = 1;
      spec.concurrency = 4;
      spec.seed = seed;
      spec.shards = 2;
      spec.warmup = 1 * kMillisecond;
      spec.measure = 8 * kMillisecond;
      specs.push_back(spec);
    }
  } else if (name == "ycsb-open") {
    w.pass_s = 1.4;
    for (double offered : kOpenGrid) {
      ScenarioSpec spec;
      spec.label = "offered=" + std::to_string(static_cast<int>(offered));
      spec.workload = "ycsb";
      spec.protocol = "chiller";
      spec.nodes = 8;
      spec.engines_per_node = 2;
      spec.concurrency = 4;
      spec.seed = seed;
      spec.options.Set("theta", 0.99);
      spec.options.Set("keys_per_partition", 1000);
      spec.load_model = "open";
      spec.offered_tps = offered;
      spec.arrival = "poisson";
      spec.queue_cap = 64;
      spec.scheduler = "hash-affinity";
      spec.warmup = 1 * kMillisecond;
      spec.measure = 5 * kMillisecond;
      specs.push_back(spec);
    }
  } else if (name == "adaptive-shift") {
    // The shift-rearm row of fig_live_migration at its defaults: a 2 ms
    // warmup, then a 26 ms controller window in which the hot set rotates
    // once (at 15 ms) and the re-armed controller chases it.
    w.pass_s = 2.3;
    ScenarioSpec spec;
    spec.label = "shift-rearm";
    spec.workload = "adaptive";
    spec.protocol = "chiller";
    spec.nodes = 4;
    spec.engines_per_node = 4;
    spec.concurrency = 4;
    spec.seed = seed;
    spec.options.Set("theta", 0.9);
    spec.options.Set("keys_per_partition", 10000);
    spec.options.Set("shift_every_us", 15000);
    spec.options.Set("shift_stride", 2500);
    spec.continuous = true;
    spec.warmup = 2 * kMillisecond;
    spec.measure = 26 * kMillisecond;
    spec.controller_period = 1 * kMillisecond;
    spec.rearm_threshold = 0.2;
    specs.push_back(spec);
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (known: tpcc-fig9, ycsb-open, adaptive-shift)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Host spans
// ---------------------------------------------------------------------------

/// Host-time spans around the benchmark's calls into the program, kept in
/// memory; one recorder per pass.
class HostSpans {
 public:
  explicit HostSpans(std::chrono::steady_clock::time_point origin)
      : origin_(origin) {}

  void Begin(std::string name) {
    spans_.push_back(Span{.name = std::move(name),
                          .start = Now(),
                          .parent = open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void End() {
    spans_[open_.back()].end = Now();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the spans called `name`.
  double Total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) t += s.end - s.start;
    }
    return t;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scoped {
 public:
  Scoped(HostSpans* spans, std::string name) : spans_(spans) {
    spans_->Begin(std::move(name));
  }
  ~Scoped() { spans_->End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  HostSpans* spans_;
};

// ---------------------------------------------------------------------------
// One scenario
// ---------------------------------------------------------------------------

struct ScenarioRun {
  Status status = Status::OK();
  std::string check_error;  ///< empty = output check passed
  chiller::cc::RunStats stats;
  chiller::runner::AdaptiveReport adaptive;
  /// Summed work counters (events, messages, ...), read after the drain.
  std::map<std::string, double> counters;
  uint64_t rss_after_load = 0;
  uint64_t rss_peak = 0;
  std::shared_ptr<const chiller::obs::TraceRecorder> trace;
};

/// Every modeled (simulated-time) result of a scenario as one string:
/// equal strings mean equal commits, aborts, sheds, latency histograms and
/// adaptivity outcomes.
std::string Fingerprint(const chiller::cc::RunStats& stats,
                        const chiller::runner::AdaptiveReport& a) {
  std::ostringstream os;
  auto hist = [&](const Histogram& h) {
    os << " n=" << h.count() << " min=" << h.min() << " max=" << h.max()
       << " mean=" << h.Mean() << " p50=" << h.Percentile(50)
       << " p90=" << h.Percentile(90) << " p99=" << h.Percentile(99)
       << " p999=" << h.Percentile(99.9);
  };
  os.precision(17);
  for (const auto& c : stats.classes) {
    os << c.name << ": " << c.commits << "/" << c.conflict_aborts << "/"
       << c.user_aborts << "/" << c.migration_aborts << "/"
       << c.distributed_commits;
    hist(c.latency);
    os << "\n";
  }
  os << "window=" << stats.window << " admitted=" << stats.admitted
     << " shed=" << stats.shed << " queue";
  hist(stats.queue_delay);
  os << "\nadaptive: " << a.sampled_txns << " " << a.lookup_entries << " "
     << a.migration.moved_records << " " << a.migration.moved_bytes << " "
     << a.migration_start << " " << a.migration_end << " "
     << a.migration_window_commits << " " << a.migration_window_aborts << " "
     << a.buckets_moved << " " << a.controller_epochs << " "
     << a.controller_migrations << " " << a.controller_rearms << " "
     << a.controller_settled << "\n";
  return os.str();
}

/// Locks and replica agreement after a drain, through the public store
/// APIs. Returns an empty string when everything holds.
std::string CheckStores(chiller::cc::Cluster* cluster) {
  const uint32_t degree = cluster->topology().replication_degree;
  for (uint32_t p = 0; p < cluster->num_engines(); ++p) {
    chiller::storage::PartitionStore* primary = cluster->primary(p);
    if (primary->locks_held() != 0) {
      return "partition " + std::to_string(p) + " primary holds " +
             std::to_string(primary->locks_held()) + " locks after drain";
    }
    for (uint32_t i = 1; i < degree; ++i) {
      chiller::storage::PartitionStore* replica = cluster->replica(p, i);
      if (replica->locks_held() != 0) {
        return "partition " + std::to_string(p) + " replica " +
               std::to_string(i) + " holds locks after drain";
      }
      if (replica->num_records() != primary->num_records()) {
        return "partition " + std::to_string(p) + " replica " +
               std::to_string(i) + " has " +
               std::to_string(replica->num_records()) + " records, primary " +
               std::to_string(primary->num_records());
      }
      size_t mismatched = 0;
      replica->ForEach([&](const chiller::RecordId& rid,
                           const chiller::storage::Record& rec) {
        const chiller::storage::Record* mine = primary->Find(rid);
        if (mine == nullptr || mine->fields() != rec.fields()) ++mismatched;
      });
      if (mismatched != 0) {
        return "partition " + std::to_string(p) + " replica " +
               std::to_string(i) + " differs from its primary in " +
               std::to_string(mismatched) + " records";
      }
    }
  }
  return "";
}

size_t RecordsInAllStores(chiller::cc::Cluster* cluster) {
  const uint32_t degree = cluster->topology().replication_degree;
  size_t n = 0;
  for (uint32_t p = 0; p < cluster->num_engines(); ++p) {
    n += cluster->primary(p)->num_records();
    for (uint32_t i = 1; i < degree; ++i) {
      n += cluster->replica(p, i)->num_records();
    }
  }
  return n;
}

/// ScenarioRunner::Wire, step by step, each step in its own span.
Status Wire(const ScenarioSpec& spec, chiller::runner::ScenarioEnv* env,
            HostSpans* spans) {
  namespace runner = chiller::runner;
  Status st = runner::ScenarioRunner::Validate(spec);
  if (!st.ok()) return st;
  {
    Scoped s(spans, "workload.make");
    auto bundle = runner::WorkloadRegistry::Global().Make(spec);
    if (!bundle.ok()) return bundle.status();
    env->bundle = std::move(bundle).value();
  }
  chiller::cc::ClusterConfig cfg;
  cfg.topology = chiller::net::Topology{
      .num_nodes = spec.nodes,
      .engines_per_node = spec.engines_per_node,
      .replication_degree = spec.replication_degree};
  cfg.shards = spec.shards;
  cfg.trace_sample_every = spec.trace_sample_every;
  {
    Scoped s(spans, "cc.cluster_build");
    cfg.schema = env->bundle->Schema();
    env->cluster = std::make_unique<chiller::cc::Cluster>(cfg);
  }
  {
    Scoped s(spans, "storage.load");
    env->bundle->Load(env->cluster.get());
  }
  Scoped s(spans, "cc.wire");
  env->repl = std::make_unique<chiller::cc::ReplicationManager>(
      env->cluster.get());
  auto protocol = runner::ProtocolRegistry::Global().Make(
      spec.protocol, env->cluster.get(), env->bundle->partitioner(),
      env->repl.get());
  if (!protocol.ok()) return protocol.status();
  env->protocol = std::move(protocol).value();
  auto model =
      chiller::cc::MakeLoadModel(spec.load_model, spec.MakeLoadModelParams());
  if (!model.ok()) return model.status();
  env->driver = std::make_unique<chiller::cc::Driver>(
      env->cluster.get(), env->protocol.get(), env->bundle->source(),
      std::move(model).value(), spec.seed);
  chiller::schedule::SchedulerContext sctx;
  sctx.num_engines = env->cluster->num_engines();
  sctx.classes = spec.sched_classes;
  sctx.partitioner = env->bundle->partitioner();
  sctx.seed = spec.seed;
  auto sched =
      chiller::schedule::SchedulerRegistry::Global().Make(spec.scheduler, sctx);
  if (!sched.ok()) return sched.status();
  if (!sched.value()->Passthrough()) {
    env->scheduler = std::move(sched).value();
    env->driver->set_scheduler(env->scheduler.get());
  }
  return Status::OK();
}

/// The measured window of ScenarioRunner::Run for the two plan shapes the
/// workloads use: warmup -> measure, or warmup -> controller window.
Status Simulate(const ScenarioSpec& spec, chiller::runner::ScenarioEnv* env,
                HostSpans* spans, ScenarioRun* out) {
  chiller::cc::Driver* driver = env->driver.get();
  // Timed windows advance in kSlice steps (the event sequence is the same
  // as one long step), so the lower envelope over passes has short spans.
  auto advance = [&](SimTime d) {
    for (SimTime left = d; left > 0;) {
      const SimTime step = std::min(kSlice, left);
      Scoped s(spans, "cc.advance");
      driver->Advance(step);
      left -= step;
    }
  };
  {
    Scoped s(spans, "cc.start");
    driver->Start();
  }
  advance(spec.warmup);
  driver->ResetStats();
  driver->set_measuring(true);
  if (spec.continuous) {
    chiller::partition::SwappablePartitioner* live =
        env->bundle->adaptive_partitioner();
    if (live == nullptr) {
      return Status::FailedPrecondition("continuous needs an adaptive workload");
    }
    chiller::migrate::AdaptiveControllerOptions copts;
    copts.period = spec.controller_period;
    copts.sample_rate = spec.controller_sample_rate;
    copts.drift_threshold = spec.controller_drift_threshold;
    copts.hysteresis_epochs = spec.controller_hysteresis;
    copts.lock_window_txns =
        static_cast<double>(spec.concurrency) * spec.partitions();
    copts.relayout_buckets = spec.relayout_buckets;
    copts.migrator.batch_records = spec.migrate_batch_records;
    copts.migrator.streams = spec.migrate_streams;
    copts.rearm_threshold = spec.rearm_threshold;
    copts.shadow = spec.shadow;
    copts.seed = spec.seed;
    chiller::migrate::AdaptiveController controller(
        driver, env->cluster.get(), env->repl.get(), live, copts);
    spans->Begin("controller.run_for");
    auto advanced = controller.RunFor(spec.measure, advance);
    spans->End();
    if (!advanced.ok()) return advanced.status();
    driver->set_measuring(false);
    driver->set_measured_window(advanced.value());
    const auto& rep = controller.report();
    chiller::runner::AdaptiveReport& a = out->adaptive;
    a.sampled_txns = rep.sampled_txns;
    a.lookup_entries = live->LookupEntries();
    a.migration.moved_records = rep.moved_records;
    a.migration.moved_bytes = rep.moved_bytes;
    a.migration_start = rep.first_migration_start;
    a.migration_end = rep.last_migration_end;
    a.migration_window_commits = rep.window_commits;
    a.migration_window_aborts = rep.window_aborts;
    a.buckets_moved = rep.buckets_moved;
    a.controller_epochs = rep.epochs;
    a.controller_migrations = rep.migrations;
    a.controller_settled = rep.settled;
    a.controller_rearms = rep.rearms;
  } else {
    advance(spec.measure);
    driver->set_measuring(false);
    driver->set_measured_window(spec.measure);
  }
  out->stats = driver->stats();
  Scoped s(spans, "cc.drain");
  driver->DrainAndStop();
  return Status::OK();
}

/// One scenario, timed phase by phase. `check` runs the output checks
/// after the drain (outside the timed phases).
ScenarioRun RunScenario(const ScenarioSpec& spec, bool check,
                        HostSpans* spans) {
  ScenarioRun out;
  chiller::runner::ScenarioEnv env;
  spans->Begin("runner.setup");
  out.status = Wire(spec, &env, spans);
  spans->End();
  if (!out.status.ok()) return out;
  out.rss_after_load = chiller::runner::CurrentRssBytes();
  const size_t records = RecordsInAllStores(env.cluster.get());
  const size_t primaries_before = env.cluster->TotalPrimaryRecords();

  spans->Begin("runner.simulate");
  out.status = Simulate(spec, &env, spans, &out);
  spans->End();
  if (!out.status.ok()) return out;
  out.rss_peak =
      std::max(out.rss_after_load, chiller::runner::CurrentRssBytes());

  // Output check and counters: the benchmark's own work, outside the
  // timed phases.
  chiller::cc::Cluster* cluster = env.cluster.get();
  if (check) out.check_error = CheckStores(cluster);
  if (check && out.check_error.empty() && spec.continuous &&
      cluster->TotalPrimaryRecords() != primaries_before) {
    out.check_error = "migration changed the primary record count from " +
                      std::to_string(primaries_before) + " to " +
                      std::to_string(cluster->TotalPrimaryRecords());
  }
  auto& c = out.counters;
  c["storage.records"] = static_cast<double>(records);
  c["sim.events"] = static_cast<double>(cluster->sim()->events_processed());
  c["net.messages"] = static_cast<double>(cluster->network()->messages_sent());
  c["net.bytes"] = static_cast<double>(cluster->network()->bytes_sent());
  c["net.rpcs"] = static_cast<double>(cluster->rpc()->rpcs_sent());
  c["net.rdma_ops"] = static_cast<double>(cluster->rdma()->ops_issued());
  c["cc.repl_batches"] = static_cast<double>(env.repl->batches_sent());
  c["cc.lifetime_commits"] =
      static_cast<double>(env.driver->lifetime_commits());
  c["sched.routed_remote"] = static_cast<double>(
      cluster->metrics()->GetCounter("sched.routed_remote")->Sum());
  if (const auto* chiller_proto =
          dynamic_cast<const chiller::core::ChillerProtocol*>(
              env.protocol.get())) {
    const auto& k = chiller_proto->counters();
    c["chiller.two_region"] = static_cast<double>(k.two_region_txns.load());
    c["chiller.fallback"] = static_cast<double>(k.fallback_txns.load());
    c["chiller.inner_aborts"] = static_cast<double>(k.inner_aborts.load());
    c["chiller.outer_aborts"] = static_cast<double>(k.outer_aborts.load());
    c["chiller.inner_local"] = static_cast<double>(k.inner_local.load());
  }
  out.trace = cluster->shared_trace();

  // Teardown in ScenarioEnv's member order (reverse of declaration).
  spans->Begin("runner.teardown");
  {
    Scoped s(spans, "cc.driver_teardown");
    env.driver.reset();
    env.scheduler.reset();
    env.protocol.reset();
    env.repl.reset();
  }
  {
    Scoped s(spans, "storage.free");
    env.cluster.reset();
  }
  {
    Scoped s(spans, "workload.free");
    env.bundle.reset();
  }
  spans->End();
  return out;
}

// ---------------------------------------------------------------------------
// Passes and metrics
// ---------------------------------------------------------------------------

struct Pass {
  std::vector<ScenarioRun> runs;
  HostSpans spans;
};

Pass RunPass(std::vector<ScenarioSpec> specs, uint32_t trace_sample_every,
             bool check, std::chrono::steady_clock::time_point origin) {
  Pass pass{.runs = {}, .spans = HostSpans(origin)};
  for (ScenarioSpec& spec : specs) {
    spec.trace_sample_every = trace_sample_every;
    pass.runs.push_back(RunScenario(spec, check, &pass.spans));
    const ScenarioRun& r = pass.runs.back();
    const uint64_t exec_p99 = MergeCommitLatency({&r.stats}).Percentile(99);
    std::fprintf(stderr,
                 "  %-16s %s  sim_tps=%.0f abort_rate=%.4f shed=%" PRIu64
                 " exec_p99_us=%.1f queue_p99_us=%.1f\n",
                 spec.label.c_str(),
                 !r.status.ok()           ? r.status.ToString().c_str()
                 : !r.check_error.empty() ? r.check_error.c_str()
                                          : "ok",
                 r.stats.Throughput(), r.stats.AbortRate(), r.stats.shed,
                 static_cast<double>(exec_p99) / kMicrosecond,
                 static_cast<double>(r.stats.queue_delay.Percentile(99)) /
                     kMicrosecond);
  }
  return pass;
}

double WallOf(const Pass& p) {
  return p.spans.Total("runner.setup") + p.spans.Total("runner.simulate") +
         p.spans.Total("runner.teardown");
}

using Metrics = std::map<std::string, double>;

/// Host metrics over the timed passes. Set-up time and RSS are medians.
/// Simulate and teardown are lower envelopes (EnvelopeSelfTime): on a
/// shared host, neighbours' cache and memory traffic slow stretches of
/// several seconds by up to 1.7x (NOTES.md), and interference only ever
/// adds time, so each step's fastest repeat is the steadiest estimate of
/// the program's own cost. wall_s is the sum of the three.
StatusOr<Metrics> HostMetrics(const std::vector<const Pass*>& timed) {
  std::vector<double> setup, rss;
  std::vector<const std::vector<Span>*> trees;
  for (const Pass* p : timed) {
    setup.push_back(p->spans.Total("runner.setup"));
    trees.push_back(&p->spans.spans());
    uint64_t peak = 0;
    for (const ScenarioRun& r : p->runs) peak = std::max(peak, r.rss_peak);
    rss.push_back(static_cast<double>(peak) / kMiB);
  }
  auto simulate = EnvelopeSelfTime(trees, "runner.simulate");
  if (!simulate.ok()) return simulate.status();
  auto teardown = EnvelopeSelfTime(trees, "runner.teardown");
  if (!teardown.ok()) return teardown.status();
  Metrics m;
  m["setup_s"] = Median(setup);
  m["simulate_s"] = simulate.value();
  m["teardown_s"] = teardown.value();
  m["wall_s"] = m["setup_s"] + m["simulate_s"] + m["teardown_s"];
  m["peak_rss_mb"] = Median(rss);
  return m;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double SimTps(const std::vector<const chiller::cc::RunStats*>& runs) {
  double commits = 0.0;
  double window = 0.0;
  for (const auto* s : runs) {
    commits += static_cast<double>(s->TotalCommits());
    window += static_cast<double>(s->window);
  }
  return Ratio(commits, window / chiller::kSecond);
}

/// Simulated-time results merged over the scenarios of a pass.
Metrics ModeledMetrics(const std::vector<ScenarioSpec>& specs, const Pass& p) {
  std::vector<const chiller::cc::RunStats*> all;
  double aborts = 0.0;
  double attempts = 0.0;
  for (const ScenarioRun& r : p.runs) {
    all.push_back(&r.stats);
    aborts += static_cast<double>(r.stats.TotalConflictAborts());
    attempts += static_cast<double>(r.stats.TotalAttempts());
  }
  const Histogram latency = MergeCommitLatency(all);
  Metrics m;
  m["sim_tps"] = SimTps(all);
  m["abort_rate"] = Ratio(aborts, attempts);
  m["commit_p50_us"] = InterpolatedPercentile(latency, 50) / kMicrosecond;
  m["commit_p99_us"] = InterpolatedPercentile(latency, 99) / kMicrosecond;
  m["latency.commit_samples"] = static_cast<double>(latency.count());

  // Open-loop admission: queueing delay, shedding, and the knee.
  Histogram queue;
  double shed = 0.0;
  double offered = 0.0;
  std::vector<LoadPoint> grid;
  for (size_t i = 0; i < p.runs.size(); ++i) {
    const chiller::cc::RunStats& s = p.runs[i].stats;
    if (!s.open_loop) continue;
    queue.Merge(s.queue_delay);
    shed += static_cast<double>(s.shed);
    offered += static_cast<double>(s.shed + s.admitted);
    grid.push_back(LoadPoint{
        .offered_tps = specs[i].offered_tps,
        .shed = s.shed,
        .queue_p99 = s.queue_delay.Percentile(99),
        .exec_p99 = MergeCommitLatency({&s}).Percentile(99)});
  }
  m["open.queue_p99_us"] = InterpolatedPercentile(queue, 99) / kMicrosecond;
  m["open.queue_samples"] = static_cast<double>(queue.count());
  m["open.shed_rate"] = Ratio(shed, offered);
  m["open.knee_tps"] = KneeTps(grid);
  return m;
}

/// Counters, ratios and per-layer host times of one pass.
Metrics LayerMetrics(const std::vector<ScenarioSpec>& specs, const Pass& p) {
  Metrics c;  // summed counters
  uint64_t rss_after_load = 0;
  std::map<std::string, std::vector<const chiller::cc::RunStats*>> by_proto;
  Metrics m;
  for (size_t i = 0; i < p.runs.size(); ++i) {
    const ScenarioRun& r = p.runs[i];
    for (const auto& [k, v] : r.counters) c[k] += v;
    rss_after_load = std::max(rss_after_load, r.rss_after_load);
    by_proto[specs[i].protocol].push_back(&r.stats);
    c["cc.attempts"] += static_cast<double>(r.stats.TotalAttempts());
    c["cc.commits"] += static_cast<double>(r.stats.TotalCommits());
    c["cc.admitted"] += static_cast<double>(r.stats.admitted);
    c["cc.shed"] += static_cast<double>(r.stats.shed);
    const auto& a = r.adaptive;
    m["controller.epochs"] += a.controller_epochs;
    m["controller.migrations"] += a.controller_migrations;
    m["controller.rearms"] += a.controller_rearms;
    m["partition.sampled_txns"] += static_cast<double>(a.sampled_txns);
    m["partition.lookup_entries"] += static_cast<double>(a.lookup_entries);
    m["migrate.moved_records"] += static_cast<double>(a.migration.moved_records);
    m["migrate.buckets_moved"] += a.buckets_moved;
    m["migrate.window_us"] +=
        static_cast<double>(a.migration_end - a.migration_start) / kMicrosecond;
    m["migrate.window_aborts"] +=
        static_cast<double>(a.migration_window_aborts);
  }
  const double commits = c["cc.lifetime_commits"];
  const double simulate_s = p.spans.Total("runner.simulate");

  m["workload.make_s"] = p.spans.Total("workload.make");
  m["storage.load_s"] = p.spans.Total("storage.load");
  m["storage.records"] = c["storage.records"];
  m["storage.load_ns_per_record"] =
      Ratio(m["storage.load_s"] * 1e9, c["storage.records"]);
  m["storage.rss_after_load_mb"] = static_cast<double>(rss_after_load) / kMiB;
  m["cc.cluster_build_s"] = p.spans.Total("cc.cluster_build");
  m["cc.wire_s"] = p.spans.Total("cc.wire");
  m["cc.driver_teardown_s"] = p.spans.Total("cc.driver_teardown");
  m["storage.free_s"] = p.spans.Total("storage.free");
  m["workload.free_s"] = p.spans.Total("workload.free");

  m["sim.events"] = c["sim.events"];
  m["sim.events_per_commit"] = Ratio(c["sim.events"], commits);
  m["sim.ns_per_event"] = Ratio(simulate_s * 1e9, c["sim.events"]);
  m["net.messages_per_commit"] = Ratio(c["net.messages"], commits);
  m["net.bytes_per_commit"] = Ratio(c["net.bytes"], commits);
  m["net.rpcs"] = c["net.rpcs"];
  m["net.rdma_ops"] = c["net.rdma_ops"];

  m["cc.attempts"] = c["cc.attempts"];
  m["cc.useful_ratio"] = Ratio(c["cc.commits"], c["cc.attempts"]);
  m["cc.repl_batches"] = c["cc.repl_batches"];
  m["cc.admitted"] = c["cc.admitted"];
  m["cc.shed"] = c["cc.shed"];
  m["cc.sim_tps.2pl"] = SimTps(by_proto["2pl"]);
  m["cc.sim_tps.chiller"] = SimTps(by_proto["chiller"]);

  const double planned = c["chiller.two_region"] + c["chiller.fallback"];
  m["chiller.two_region_share"] = Ratio(c["chiller.two_region"], planned);
  m["chiller.fallback_share"] = Ratio(c["chiller.fallback"], planned);
  m["chiller.inner_aborts"] = c["chiller.inner_aborts"];
  m["chiller.outer_aborts"] = c["chiller.outer_aborts"];
  m["chiller.inner_local_share"] =
      Ratio(c["chiller.inner_local"], c["chiller.two_region"]);
  m["chiller.speedup_vs_2pl"] =
      Ratio(m["cc.sim_tps.chiller"], m["cc.sim_tps.2pl"]);

  m["sched.routed_remote"] = c["sched.routed_remote"];
  m["controller.host_s"] = SelfTimeByName(p.spans.spans())["controller.run_for"];

  const auto layers = SelfTimeByLayer(p.spans.spans());
  for (const char* layer : kLayers) {
    const auto it = layers.find(layer);
    m[std::string("host.") + layer + ".self_s"] =
        it == layers.end() ? 0.0 : it->second;
  }
  return m;
}

/// Chrome trace of host spans, one trace process per pass.
std::string HostTraceJson(const std::vector<const Pass*>& passes,
                          const std::vector<std::string>& names) {
  chiller::Json events = chiller::Json::MakeArray();
  for (size_t i = 0; i < passes.size(); ++i) {
    chiller::Json meta = chiller::Json::MakeObject();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = static_cast<uint64_t>(i);
    meta["args"]["name"] = names[i];
    events.Append(std::move(meta));
    for (const Span& s : passes[i]->spans.spans()) {
      chiller::Json ev = chiller::Json::MakeObject();
      ev["name"] = s.name;
      ev["ph"] = "X";
      ev["ts"] = s.start * 1e6;
      ev["dur"] = (s.end - s.start) * 1e6;
      ev["pid"] = static_cast<uint64_t>(i);
      ev["tid"] = 0;
      events.Append(std::move(ev));
    }
  }
  chiller::Json doc = chiller::Json::MakeObject();
  doc["traceEvents"] = std::move(events);
  return doc.Dump();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  auto made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& workload = made.value();
  const std::vector<ScenarioSpec>& specs = workload.specs;
  const auto origin = std::chrono::steady_clock::now();

  std::vector<std::string> errors;
  std::vector<Pass> passes;
  std::vector<std::string> pass_names;
  auto run_pass = [&](uint32_t sample_every, const std::string& name) {
    std::fprintf(stderr, "pass %zu (%s):\n", passes.size(), name.c_str());
    passes.push_back(
        RunPass(specs, sample_every, /*check=*/passes.empty(), origin));
    pass_names.push_back(name);
    const Pass& p = passes.back();
    std::fprintf(stderr, "  setup %.3f s, simulate %.3f s, teardown %.3f s\n",
                 p.spans.Total("runner.setup"),
                 p.spans.Total("runner.simulate"),
                 p.spans.Total("runner.teardown"));
  };

  // Pass 0 runs the output checks. With --trace 0 it is timed too: the
  // envelope and the median shrug off its cold heap. A traced run times
  // pass 1 only, so pass 0 warms up for it.
  run_pass(0, args.trace == 0 ? "timed" : "cold");
  if (args.trace == 0) {
    // A fixed count keeps the envelope comparable across programs; on a
    // machine much slower than the calibration one, stop at 1.15x the
    // budget instead (never below three passes).
    const int timed =
        std::max(3, static_cast<int>(args.seconds / workload.pass_s));
    for (int i = 1; i < timed; ++i) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - origin)
                                 .count();
      if (i >= 3 && elapsed * (i + 1) / i > 1.15 * args.seconds) break;
      run_pass(0, "timed");
    }
  } else {
    run_pass(0, "timed");
    run_pass(kTraceSampleEvery, "traced");
  }

  // Output checks and failure accounting on pass 0; every later pass must
  // reproduce its modeled results exactly.
  const Pass& first = passes.front();
  std::vector<ScenarioOps> ops;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScenarioRun& r = first.runs[i];
    const std::string& label = specs[i].label;
    ScenarioOps o{.commits = r.stats.TotalCommits(),
                  .shed = r.stats.shed,
                  .ran = r.status.ok(),
                  .checked = r.check_error.empty()};
    for (const auto& cls : r.stats.classes) o.user_aborts += cls.user_aborts;
    if (!r.status.ok()) errors.push_back(label + ": " + r.status.ToString());
    if (!r.check_error.empty()) errors.push_back(label + ": " + r.check_error);
    const std::string want = Fingerprint(r.stats, r.adaptive);
    for (size_t k = 1; k < passes.size(); ++k) {
      const ScenarioRun& again = passes[k].runs[i];
      if (!again.status.ok() || !again.check_error.empty() ||
          Fingerprint(again.stats, again.adaptive) != want) {
        o.checked = false;
        errors.push_back(label + ": " + pass_names[k] +
                         " pass differs from pass 0");
      }
    }
    if (args.trace == 1 && o.ran) {
      // The hand-wired scenario must be the one the runner runs.
      auto ref = chiller::runner::ScenarioRunner::Run(specs[i]);
      if (!ref.ok() ||
          Fingerprint(ref.value().stats, ref.value().adaptive) != want) {
        o.checked = false;
        errors.push_back(label + ": ScenarioRunner::Run disagrees");
      }
    }
    ops.push_back(o);
  }
  const OpsTally tally = TallyOps(ops);

  Metrics metrics;
  if (errors.empty()) {
    std::vector<const Pass*> timed;
    for (size_t k = 0; k < passes.size(); ++k) {
      if (pass_names[k] == "timed") timed.push_back(&passes[k]);
    }
    auto host = HostMetrics(timed);
    if (!host.ok()) errors.push_back("host spans: " + host.status().ToString());
    if (host.ok()) metrics = std::move(host).value();
    for (const auto& [name, v] : ModeledMetrics(specs, first)) {
      metrics[name] = v;
    }
  }
  if (errors.empty() && args.trace == 1) {
    const Pass& untraced = passes[passes.size() - 2];
    const Pass& traced = passes.back();
    for (const auto& [name, v] : LayerMetrics(specs, untraced)) {
      metrics[name] = v;
    }
    // The layers' self times partition the wall time.
    double layer_sum = 0.0;
    for (const auto& [name, t] : SelfTimeByLayer(untraced.spans.spans())) {
      layer_sum += t;
    }
    if (std::abs(layer_sum - metrics["wall_s"]) > 1e-6) {
      errors.push_back("layer self times do not sum to wall_s");
    }
    metrics["obs.trace_overhead_s"] = WallOf(traced) - WallOf(untraced);
    double events = 0.0;
    std::map<std::string, double> self_us;
    double traced_txns = 0.0;
    std::string sim_events;
    uint32_t pid_offset = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const auto& rec = *traced.runs[i].trace;
      events += static_cast<double>(rec.events_recorded());
      auto reduced = ReduceTraceDump(rec.DumpJson());
      if (!reduced.ok()) {
        errors.push_back("trace dump: " + reduced.status().ToString());
        break;
      }
      for (const auto& [name, t] : reduced.value().self_us) self_us[name] += t;
      traced_txns += static_cast<double>(reduced.value().traced_txns);
      rec.AppendEvents(&sim_events, pid_offset, specs[i].label);
      pid_offset += rec.num_pids();
    }
    metrics["obs.trace_events"] = events;
    for (const char* span : kSimSpans) {
      metrics[std::string("span.") + span + ".self_us_per_txn"] =
          Ratio(self_us[span], traced_txns);
    }
    const std::string stem =
        args.trace_dir + "/" + args.workload + "-seed" +
        std::to_string(args.seed);
    std::vector<const Pass*> all_passes;
    for (const Pass& p : passes) all_passes.push_back(&p);
    if (!WriteFile(stem + ".host.json", HostTraceJson(all_passes, pass_names)) ||
        !WriteFile(stem + ".sim.json",
                   chiller::obs::TraceRecorder::WrapTrace(sim_events))) {
      errors.push_back("cannot write traces under " + args.trace_dir);
    } else {
      std::fprintf(stderr, "traces: %s.host.json, %s.sim.json\n",
                   stem.c_str(), stem.c_str());
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  chiller::Json result = chiller::Json::MakeObject();
  result["correct"] = errors.empty();
  result["attempted"] = tally.attempted;
  result["failed"] = tally.failed;
  result["passes"] = static_cast<uint64_t>(passes.size());
  chiller::Json& out = result["metrics"];
  out = chiller::Json::MakeObject();
  for (const auto& [name, v] : metrics) out[name] = v;
  std::printf("%s\n", result.Dump().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
