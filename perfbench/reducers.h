// Pure reducers behind the benchmark's numbers: span self time, latency
// histogram merging, the open-loop knee rule, failure accounting, and
// medians. Kept apart from the driver so each rule has a small test with a
// hand-built input (reducers_test.cc).
#ifndef PERFBENCH_REDUCERS_H_
#define PERFBENCH_REDUCERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "common/histogram.h"
#include "common/status.h"

namespace perfbench {

/// One timed interval. `parent` indexes the enclosing span in the same
/// vector, or is -1 for a root.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children count once,
/// coverage outside the parent is ignored), summed over spans of one name.
/// The values sum to the summed duration of the roots.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// Sums self time by layer, the name's prefix before the first '.'
/// ("storage.load" -> "storage"); a name without a dot is its own layer.
std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans);

/// Lower envelope of one phase over repeats of the same work: every repeat
/// recorded the same span tree (same names in the same order); for each
/// span under a root called `root`, take its smallest self time across
/// repeats, and sum. Interference from other processes only adds time, so
/// this tracks the work's own cost more steadily than any single repeat.
/// InvalidArgument when the repeats' trees differ.
chiller::StatusOr<double> EnvelopeSelfTime(
    const std::vector<const std::vector<Span>*>& repeats,
    const std::string& root);

/// Sets `parent` for spans that only share a grouping key (one transaction
/// attempt in a simulated-time trace): a span's parent is the shortest other
/// span of its group whose interval contains it. `group[i]` is span i's key.
void AssignParentsByContainment(std::vector<Span>* spans,
                                const std::vector<uint64_t>& group);

/// Simulated-time span self time out of an obs::TraceRecorder::DumpJson()
/// document: complete ('X') events grouped per (txn, attempt), parents by
/// containment, self time in simulated microseconds per span name.
struct TraceSelfTime {
  std::map<std::string, double> self_us;
  uint64_t traced_txns = 0;  ///< distinct transactions with a span
};
chiller::StatusOr<TraceSelfTime> ReduceTraceDump(const std::string& json);

/// The p-th percentile of `h` interpolated linearly inside the bucket that
/// holds it. Histogram::Percentile answers with the bucket's upper bound,
/// so a latency that moves by less than a bucket (~3 %) reads identically;
/// this estimate moves with the samples. Uses only the public Histogram
/// API: bucket populations are recovered by binary search over ranks.
double InterpolatedPercentile(const chiller::Histogram& h, double p);

/// Every class's commit-latency histogram across scenarios, merged.
chiller::Histogram MergeCommitLatency(
    const std::vector<const chiller::cc::RunStats*>& runs);

/// One point of an open-loop offered-load grid (latencies in ns).
struct LoadPoint {
  double offered_tps = 0.0;
  uint64_t shed = 0;
  uint64_t queue_p99 = 0;
  uint64_t exec_p99 = 0;
};
/// The knee: the highest offered rate that sheds nothing and whose p99
/// queueing delay is at most its p99 execution latency (the rule behind
/// BENCH_latency.json's config.knee_tps); 0 when no point qualifies.
double KneeTps(const std::vector<LoadPoint>& grid);

/// Operations of one scenario: logical transactions offered in its measured
/// window (commits + user aborts + sheds), whether it ran without error and
/// whether it passed the output check.
struct ScenarioOps {
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t shed = 0;
  bool ran = true;
  bool checked = true;
};
struct OpsTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};
/// A scenario that errored or failed its check fails all its operations
/// (at least one, so an error before any traffic still counts). Sheds are
/// admission-control outcomes reported through the shed rate, not failures.
OpsTally TallyOps(const std::vector<ScenarioOps>& scenarios);

/// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_REDUCERS_H_
