#include "reducers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <utility>

#include "common/json.h"

namespace perfbench {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[s.name] +=
        (s.end - s.start) - CoveredLength(children[i], s.start, s.end);
  }
  return self;
}

std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::map<std::string, double> layers;
  for (const auto& [name, t] : SelfTimeByName(spans)) layers[LayerOf(name)] += t;
  return layers;
}

chiller::StatusOr<double> EnvelopeSelfTime(
    const std::vector<const std::vector<Span>*>& repeats,
    const std::string& root) {
  if (repeats.empty()) return 0.0;
  const std::vector<Span>& shape = *repeats.front();
  std::vector<double> best;
  for (const std::vector<Span>* r : repeats) {
    if (r->size() != shape.size()) {
      return chiller::Status::InvalidArgument("repeats differ in span count");
    }
    std::vector<double> self(r->size());
    for (size_t i = 0; i < r->size(); ++i) {
      const Span& s = (*r)[i];
      if (s.name != shape[i].name || s.parent != shape[i].parent) {
        return chiller::Status::InvalidArgument("repeats differ at span " +
                                                s.name);
      }
      self[i] += s.end - s.start;
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    }
    if (best.empty()) {
      best = self;
    } else {
      for (size_t i = 0; i < self.size(); ++i) {
        best[i] = std::min(best[i], self[i]);
      }
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < shape.size(); ++i) {
    int top = static_cast<int>(i);
    while (shape[top].parent >= 0) top = shape[top].parent;
    if (shape[top].name == root) total += best[i];
  }
  return total;
}

void AssignParentsByContainment(std::vector<Span>* spans,
                                const std::vector<uint64_t>& group) {
  std::map<uint64_t, std::vector<int>> members;
  for (size_t i = 0; i < spans->size(); ++i) {
    members[group[i]].push_back(static_cast<int>(i));
  }
  for (const auto& [key, ids] : members) {
    for (int i : ids) {
      Span& child = (*spans)[i];
      child.parent = -1;
      double best = 0.0;
      for (int j : ids) {
        if (j == i) continue;
        const Span& p = (*spans)[j];
        const double len = p.end - p.start;
        const double child_len = child.end - child.start;
        // Equal intervals nest by index so two identical spans do not
        // parent each other.
        const bool contains = p.start <= child.start && child.end <= p.end &&
                              (len > child_len || j < i);
        if (contains && (child.parent < 0 || len < best)) {
          child.parent = j;
          best = len;
        }
      }
    }
  }
}

chiller::StatusOr<TraceSelfTime> ReduceTraceDump(const std::string& json) {
  auto doc = chiller::Json::Parse(json);
  if (!doc.ok()) return doc.status();
  const chiller::Json* events = doc.value().Get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return chiller::Status::InvalidArgument("trace dump has no traceEvents");
  }
  TraceSelfTime out;
  std::vector<Span> spans;
  std::vector<uint64_t> group;
  std::set<uint64_t> txns;
  for (const chiller::Json& ev : events->AsArray()) {
    if (ev.Get("ph")->AsString() != "X") continue;
    const chiller::Json* args = ev.Get("args");
    const chiller::Json* txn = args == nullptr ? nullptr : args->Get("txn");
    if (txn == nullptr) continue;
    const double ts = ev.Get("ts")->AsDouble();
    const auto id = static_cast<uint64_t>(txn->AsDouble());
    const auto attempt =
        static_cast<uint64_t>(args->Get("attempt")->AsDouble());
    spans.push_back(Span{.name = ev.Get("name")->AsString(),
                         .start = ts,
                         .end = ts + ev.Get("dur")->AsDouble()});
    // Attempts per transaction stay far below 2^16.
    group.push_back((id << 16) | attempt);
    txns.insert(id);
  }
  AssignParentsByContainment(&spans, group);
  out.self_us = SelfTimeByName(spans);
  out.traced_txns = txns.size();
  return out;
}

double InterpolatedPercentile(const chiller::Histogram& h, double p) {
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  // Upper bound (or the maximum) of the bucket holding the k-th smallest
  // sample, k in [1, n].
  auto kth = [&](uint64_t k) {
    return h.Percentile(100.0 * (static_cast<double>(k) - 0.5) /
                        static_cast<double>(n));
  };
  const double rank = p / 100.0 * static_cast<double>(n);
  const uint64_t k = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(rank)), 1, n);
  const uint64_t top = kth(k);
  // The bucket's lower edge: buckets below 32 hold one value, above it 32
  // sub-buckets split each power of two (common/histogram.cc).
  const int shift = top < 32 ? 0 : std::bit_width(top) - 1 - 5;
  const uint64_t lower = (top >> shift) << shift;
  // Samples below the bucket and up to its top.
  auto last_rank = [&](uint64_t lo, uint64_t hi, auto within) {
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo + 1) / 2;
      if (within(kth(mid))) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };
  const uint64_t below =
      last_rank(0, k - 1, [&](uint64_t v) { return v < lower; });
  const uint64_t through =
      last_rank(k, n, [&](uint64_t v) { return v <= top; });
  const double share = (rank - static_cast<double>(below)) /
                       static_cast<double>(through - below);
  return static_cast<double>(lower) +
         std::clamp(share, 0.0, 1.0) * static_cast<double>(top - lower);
}

chiller::Histogram MergeCommitLatency(
    const std::vector<const chiller::cc::RunStats*>& runs) {
  chiller::Histogram merged;
  for (const chiller::cc::RunStats* run : runs) {
    for (const chiller::cc::ClassStats& cls : run->classes) {
      merged.Merge(cls.latency);
    }
  }
  return merged;
}

double KneeTps(const std::vector<LoadPoint>& grid) {
  double knee = 0.0;
  for (const LoadPoint& p : grid) {
    if (p.shed == 0 && p.queue_p99 <= p.exec_p99) {
      knee = std::max(knee, p.offered_tps);
    }
  }
  return knee;
}

OpsTally TallyOps(const std::vector<ScenarioOps>& scenarios) {
  OpsTally tally;
  for (const ScenarioOps& s : scenarios) {
    const uint64_t ops = s.commits + s.user_aborts + s.shed;
    if (s.ran && s.checked) {
      tally.attempted += ops;
    } else {
      tally.attempted += std::max<uint64_t>(ops, 1);
      tally.failed += std::max<uint64_t>(ops, 1);
    }
  }
  return tally;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
