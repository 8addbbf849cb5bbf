// Each reducer on a small hand-built input with a known answer.
#include "reducers.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/histogram.h"

namespace perfbench {
namespace {

TEST(SelfTimeTest, SubtractsChildrenOnceAndSumsToRoots) {
  // root [0, 10] with children [1, 4] and [5, 7], and a grandchild [2, 3]
  // inside the first child.
  const std::vector<Span> spans = {
      {.name = "setup", .start = 0, .end = 10, .parent = -1},
      {.name = "storage.load", .start = 1, .end = 4, .parent = 0},
      {.name = "cc.wire", .start = 5, .end = 7, .parent = 0},
      {.name = "storage.index", .start = 2, .end = 3, .parent = 1},
      {.name = "teardown", .start = 10, .end = 12, .parent = -1},
  };
  auto self = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(self["setup"], 5.0);
  EXPECT_DOUBLE_EQ(self["storage.load"], 2.0);
  EXPECT_DOUBLE_EQ(self["cc.wire"], 2.0);
  EXPECT_DOUBLE_EQ(self["storage.index"], 1.0);
  EXPECT_DOUBLE_EQ(self["teardown"], 2.0);

  auto layers = SelfTimeByLayer(spans);
  EXPECT_DOUBLE_EQ(layers["storage"], 3.0);
  EXPECT_DOUBLE_EQ(layers["cc"], 2.0);
  double total = 0;
  for (const auto& [layer, t] : layers) total += t;
  EXPECT_DOUBLE_EQ(total, 12.0);  // the roots' summed duration
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {.name = "a", .start = 0, .end = 10, .parent = -1},
      {.name = "b", .start = 1, .end = 4, .parent = 0},
      {.name = "c", .start = 3, .end = 6, .parent = 0},
  };
  EXPECT_DOUBLE_EQ(SelfTimeByName(spans)["a"], 5.0);
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {
      {.name = "a", .start = 0, .end = 4, .parent = -1},
      {.name = "b", .start = 3, .end = 8, .parent = 0},
  };
  EXPECT_DOUBLE_EQ(SelfTimeByName(spans)["a"], 3.0);
}

TEST(EnvelopeTest, SumsEachSpansFastestSelfTime) {
  // Two repeats of simulate{advance, advance} plus an unrelated root.
  const std::vector<Span> fast_first = {
      {.name = "simulate", .start = 0, .end = 10, .parent = -1},
      {.name = "advance", .start = 0, .end = 3, .parent = 0},
      {.name = "advance", .start = 3, .end = 9, .parent = 0},
      {.name = "teardown", .start = 10, .end = 11, .parent = -1},
  };
  const std::vector<Span> fast_second = {
      {.name = "simulate", .start = 0, .end = 8, .parent = -1},
      {.name = "advance", .start = 0, .end = 5, .parent = 0},
      {.name = "advance", .start = 5, .end = 8, .parent = 0},
      {.name = "teardown", .start = 8, .end = 10, .parent = -1},
  };
  auto simulate = EnvelopeSelfTime({&fast_first, &fast_second}, "simulate");
  ASSERT_TRUE(simulate.ok());
  // self: simulate min(1, 0) + advance min(3, 5) + advance min(6, 3).
  EXPECT_DOUBLE_EQ(simulate.value(), 0.0 + 3.0 + 3.0);
  EXPECT_DOUBLE_EQ(
      EnvelopeSelfTime({&fast_first, &fast_second}, "teardown").value(), 1.0);
  EXPECT_DOUBLE_EQ(EnvelopeSelfTime({&fast_first}, "simulate").value(), 10.0);

  std::vector<Span> other = fast_second;
  other[2].name = "drain";
  EXPECT_FALSE(EnvelopeSelfTime({&fast_first, &other}, "simulate").ok());
}

TEST(SelfTimeTest, ParentsByContainmentWithinAGroup) {
  std::vector<Span> spans = {
      {.name = "attempt", .start = 0, .end = 10},
      {.name = "commit_phase", .start = 6, .end = 10},
      {.name = "inner_region", .start = 2, .end = 5},
      {.name = "retry_backoff", .start = 10, .end = 13},
      {.name = "attempt", .start = 1, .end = 3},  // another txn
  };
  AssignParentsByContainment(&spans, {7, 7, 7, 7, 9});
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[4].parent, -1);
  auto self = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(self["attempt"], 3.0 + 2.0);
  EXPECT_DOUBLE_EQ(self["retry_backoff"], 3.0);
}

TEST(SelfTimeTest, ReducesATraceDump) {
  const std::string dump = R"({"traceEvents":[
    {"name":"process_name","ph":"M","pid":0,"args":{"name":"node 0"}},
    {"name":"queue_wait","ph":"X","ts":0.000,"dur":2.000,"pid":0,"tid":0,
     "args":{"txn":1,"attempt":0}},
    {"name":"attempt","ph":"X","ts":2.000,"dur":10.000,"pid":0,"tid":0,
     "args":{"txn":1,"attempt":0}},
    {"name":"commit_phase","ph":"X","ts":8.000,"dur":4.000,"pid":0,"tid":0,
     "args":{"txn":1,"attempt":0}},
    {"name":"attempt","ph":"X","ts":3.000,"dur":6.000,"pid":0,"tid":1,
     "args":{"txn":2,"attempt":0}},
    {"name":"commit","ph":"i","ts":12.000,"s":"t","pid":0,"tid":0,
     "args":{"txn":1,"attempt":0}}
  ]})";
  auto reduced = ReduceTraceDump(dump);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_EQ(reduced.value().traced_txns, 2u);
  EXPECT_DOUBLE_EQ(reduced.value().self_us.at("attempt"), 6.0 + 6.0);
  EXPECT_DOUBLE_EQ(reduced.value().self_us.at("commit_phase"), 4.0);
  EXPECT_DOUBLE_EQ(reduced.value().self_us.at("queue_wait"), 2.0);
}

TEST(MergeCommitLatencyTest, MergesEveryClassOfEveryScenario) {
  chiller::cc::RunStats a;
  chiller::cc::RunStats b;
  a.EnsureClass(0, "x");
  a.EnsureClass(1, "y");
  b.EnsureClass(0, "x");
  for (int i = 0; i < 90; ++i) a.classes[0].latency.Add(10);
  for (int i = 0; i < 5; ++i) a.classes[1].latency.Add(1000);
  for (int i = 0; i < 5; ++i) b.classes[0].latency.Add(100000);
  const chiller::Histogram merged = MergeCommitLatency({&a, &b});
  EXPECT_EQ(merged.count(), 100u);
  EXPECT_EQ(merged.min(), 10u);
  EXPECT_EQ(merged.max(), 100000u);
  // 90 samples at 10 hold the median; the 99th sample is in scenario b.
  chiller::Histogram ten;
  ten.Add(10);
  EXPECT_EQ(merged.Percentile(50), ten.Percentile(50));
  EXPECT_GE(merged.Percentile(99), 97000u);
}

TEST(InterpolatedPercentileTest, InterpolatesInsideTheBucket) {
  // [1024, 1055] is one bucket (32 wide); 1030 and 1050 share it.
  chiller::Histogram one_bucket;
  for (int i = 0; i < 50; ++i) one_bucket.Add(1030);
  for (int i = 0; i < 50; ++i) one_bucket.Add(1050);
  EXPECT_EQ(one_bucket.Percentile(50), 1050u);  // the bucket's answer
  // Rank 50 of the bucket's 100, spread over [1024, max = 1050].
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(one_bucket, 50), 1024 + 0.5 * 26);

  chiller::Histogram two_buckets;
  for (int i = 0; i < 90; ++i) two_buckets.Add(10);
  for (int i = 0; i < 10; ++i) two_buckets.Add(1050);
  // Below 32 a bucket is one value.
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(two_buckets, 50), 10.0);
  // Rank 99: 90 samples below the bucket, 10 in it.
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(two_buckets, 99),
                   1024 + 0.9 * 26);
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(chiller::Histogram(), 99), 0.0);
}

TEST(KneeTest, HighestPointThatShedsNothingAndKeepsTheQueueShort) {
  const std::vector<LoadPoint> grid = {
      {.offered_tps = 100, .shed = 0, .queue_p99 = 5, .exec_p99 = 50},
      {.offered_tps = 200, .shed = 0, .queue_p99 = 50, .exec_p99 = 50},
      {.offered_tps = 300, .shed = 0, .queue_p99 = 80, .exec_p99 = 60},
      {.offered_tps = 400, .shed = 3, .queue_p99 = 10, .exec_p99 = 60},
  };
  EXPECT_DOUBLE_EQ(KneeTps(grid), 200.0);
  EXPECT_DOUBLE_EQ(KneeTps({grid[2], grid[3]}), 0.0);
  EXPECT_DOUBLE_EQ(KneeTps({}), 0.0);
}

TEST(TallyOpsTest, FailedScenariosFailAllTheirOperations) {
  const std::vector<ScenarioOps> runs = {
      {.commits = 90, .user_aborts = 10, .shed = 5},
      {.commits = 40, .user_aborts = 0, .shed = 0, .checked = false},
      {.commits = 0, .user_aborts = 0, .shed = 0, .ran = false},
  };
  const OpsTally t = TallyOps(runs);
  EXPECT_EQ(t.attempted, 105u + 40u + 1u);
  EXPECT_EQ(t.failed, 40u + 1u);
  EXPECT_EQ(TallyOps({runs[0]}).failed, 0u);  // sheds are not failures
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

}  // namespace
}  // namespace perfbench
