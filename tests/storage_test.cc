// Unit tests for the storage substrate: lock words, records, buckets, tables
// and their slabs, stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"

#include "storage/bucket.h"
#include "storage/lock_word.h"
#include "storage/partition_store.h"
#include "storage/record.h"
#include "storage/table.h"

namespace chiller::storage {
namespace {

TEST(LockWordTest, FreshWordIsFree) {
  uint64_t w = LockWord::MakeFree(0);
  EXPECT_TRUE(LockWord::IsFree(w));
  EXPECT_FALSE(LockWord::IsExclusive(w));
  EXPECT_EQ(LockWord::SharedCount(w), 0u);
  EXPECT_EQ(LockWord::Version(w), 0u);
}

TEST(LockWordTest, SharedAcquireRelease) {
  uint64_t w = LockWord::MakeFree(5);
  EXPECT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_EQ(LockWord::SharedCount(w), 2u);
  EXPECT_EQ(LockWord::Version(w), 5u);
  LockWord::ReleaseShared(&w);
  LockWord::ReleaseShared(&w);
  EXPECT_TRUE(LockWord::IsFree(w));
  EXPECT_EQ(LockWord::Version(w), 5u);  // shared release never bumps
}

TEST(LockWordTest, ExclusiveBlocksEverything) {
  uint64_t w = LockWord::MakeFree(0);
  EXPECT_TRUE(LockWord::TryAcquireExclusive(&w));
  EXPECT_FALSE(LockWord::TryAcquireExclusive(&w));
  EXPECT_FALSE(LockWord::TryAcquireShared(&w));
}

TEST(LockWordTest, SharedBlocksExclusive) {
  uint64_t w = LockWord::MakeFree(0);
  EXPECT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_FALSE(LockWord::TryAcquireExclusive(&w));
}

TEST(LockWordTest, VersionBumpOnModifiedRelease) {
  uint64_t w = LockWord::MakeFree(7);
  ASSERT_TRUE(LockWord::TryAcquireExclusive(&w));
  LockWord::ReleaseExclusive(&w, /*modified=*/true);
  EXPECT_EQ(LockWord::Version(w), 8u);
  ASSERT_TRUE(LockWord::TryAcquireExclusive(&w));
  LockWord::ReleaseExclusive(&w, /*modified=*/false);
  EXPECT_EQ(LockWord::Version(w), 8u);
}

TEST(LockWordTest, VersionWrapsAt48Bits) {
  uint64_t w = LockWord::MakeFree(LockWord::kVersionMask);
  ASSERT_TRUE(LockWord::TryAcquireExclusive(&w));
  LockWord::ReleaseExclusive(&w, true);
  EXPECT_EQ(LockWord::Version(w), 0u);
  EXPECT_TRUE(LockWord::IsFree(w));
}

TEST(LockWordTest, ManySharedHolders) {
  uint64_t w = LockWord::MakeFree(0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(LockWord::TryAcquireShared(&w));
  EXPECT_EQ(LockWord::SharedCount(w), 1000u);
  for (int i = 0; i < 1000; ++i) LockWord::ReleaseShared(&w);
  EXPECT_TRUE(LockWord::IsFree(w));
}

TEST(RecordTest, FieldsRoundTrip) {
  Record r(4);
  r.Set(0, 42);
  r.Set(3, -7);
  r.Add(0, 8);
  EXPECT_EQ(r.Get(0), 50);
  EXPECT_EQ(r.Get(3), -7);
  EXPECT_EQ(r.num_fields(), 4u);
  EXPECT_EQ(r.wire_bytes(), 32u);
}

TEST(RecordTest, ExplicitWireSize) {
  Record r(2, 300);
  EXPECT_EQ(r.wire_bytes(), 300u);
}

TEST(RecordTest, DefaultRecordIsEmpty) {
  // Replication and migration byte counts rely on an empty image's size.
  Record r;
  EXPECT_EQ(r.num_fields(), 0u);
  EXPECT_EQ(r.wire_bytes(), 0u);
}

TEST(RecordTest, FieldsCompareByCountAndValue) {
  Record a(2);
  Record b(3);
  a.Set(0, 4);
  b.Set(0, 4);
  // Equal two-field prefixes, different field counts.
  EXPECT_NE(a.fields(), b.fields());
  Record c(2);
  c.Set(0, 4);
  EXPECT_EQ(a.fields(), c.fields());
  c.Set(1, 9);
  EXPECT_NE(a.fields(), c.fields());
  EXPECT_EQ(testing::PrintToString(c.fields()), "{4, 9}");
}

TEST(RecordDeathTest, WiderThanMaxFieldsChecks) {
  EXPECT_DEATH(Record(kMaxFields + 1), "kMaxFields");
  EXPECT_DEATH(Table(TableSpec{.name = "wide", .id = 0,
                               .num_fields = kMaxFields + 1}),
               "kMaxFields");
}

TEST(BucketTest, LockInterface) {
  Bucket b;
  EXPECT_TRUE(b.TryLockExclusive());
  EXPECT_FALSE(b.TryLockShared());
  b.UnlockExclusive(/*modified=*/true);
  EXPECT_EQ(b.version(), 1u);
  EXPECT_TRUE(b.TryLockShared());
  b.UnlockShared();
}

TEST(TableTest, BucketStableForKey) {
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = 64});
  for (Key k = 0; k < 100; ++k) {
    EXPECT_EQ(t.BucketIndex(k), t.BucketIndex(k));
    EXPECT_LT(t.BucketIndex(k), 64u);
  }
}

TEST(TableTest, InsertFindErase) {
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 1});
  EXPECT_TRUE(t.Insert(1, Record(2)).ok());
  EXPECT_TRUE(t.Insert(2, Record(2)).ok());
  EXPECT_TRUE(t.Insert(1, Record(2)).IsFailedPrecondition());  // duplicate
  ASSERT_NE(t.Find(1), nullptr);
  EXPECT_EQ(t.Find(3), nullptr);
  EXPECT_TRUE(t.Erase(1).ok());
  EXPECT_TRUE(t.Erase(1).IsNotFound());
  EXPECT_EQ(t.num_records(), 1u);
  EXPECT_NE(t.Find(2), nullptr);
}

TEST(TableTest, InsertAndFind) {
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 16});
  for (Key k = 0; k < 100; ++k) {
    Record r(2);
    r.Set(0, static_cast<int64_t>(k) * 10);
    ASSERT_TRUE(t.Insert(k, r).ok());
  }
  EXPECT_EQ(t.num_records(), 100u);
  for (Key k = 0; k < 100; ++k) {
    Record* r = t.Find(k);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->Get(0), static_cast<int64_t>(k) * 10);
  }
  EXPECT_TRUE(t.Insert(5, Record(2)).IsFailedPrecondition());
  EXPECT_TRUE(t.Erase(5).ok());
  EXPECT_TRUE(t.Erase(5).IsNotFound());
  EXPECT_EQ(t.num_records(), 99u);
}

TEST(TableTest, OverflowSharesBucketLock) {
  // Two keys in the same bucket share one lock: locking one blocks the other
  // (bucket-granularity locking, Section 6).
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = 1});
  ASSERT_TRUE(t.Insert(1, Record(1)).ok());
  ASSERT_TRUE(t.Insert(2, Record(1)).ok());
  EXPECT_EQ(t.BucketFor(1), t.BucketFor(2));
  ASSERT_TRUE(t.BucketFor(1)->TryLockExclusive());
  EXPECT_FALSE(t.BucketFor(2)->TryLockExclusive());
  t.BucketFor(1)->UnlockExclusive(false);
}

TEST(TableTest, ForEachOrderMatchesVectorSwapWithLastErase) {
  // Reference model: one vector per bucket, appended on insert and erased
  // by moving the last element into the hole. Migration plans follow
  // ForEach order, so the chained slab must reproduce it exactly.
  constexpr size_t kBuckets = 8;
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 1,
                    .buckets_per_partition = kBuckets});
  std::vector<std::vector<std::pair<Key, int64_t>>> model(kBuckets);
  Rng rng(17);
  for (int step = 0; step < 4000; ++step) {
    const Key k = rng.Uniform(200);
    auto& bucket = model[t.BucketIndex(k)];
    auto it = std::find_if(bucket.begin(), bucket.end(),
                           [&](const auto& e) { return e.first == k; });
    if (it == bucket.end()) {
      Record r(1);
      r.Set(0, step);
      ASSERT_TRUE(t.Insert(k, r).ok());
      bucket.emplace_back(k, step);
    } else {
      ASSERT_TRUE(t.Erase(k).ok());
      *it = bucket.back();
      bucket.pop_back();
    }
  }
  std::vector<std::pair<Key, int64_t>> expected;
  for (const auto& bucket : model) {
    expected.insert(expected.end(), bucket.begin(), bucket.end());
  }
  std::vector<std::pair<Key, int64_t>> visited;
  t.ForEach([&](Key k, const Record& r) { visited.emplace_back(k, r.Get(0)); });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(t.num_records(), expected.size());
}

TEST(TableTest, RecordAddressSurvivesInserts) {
  // One bucket: every insert lands in the same chain and grows the slab
  // by many chunks, yet the first record never moves.
  Table t(TableSpec{.name = "x", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 1});
  Record first(2);
  first.Set(1, 77);
  ASSERT_TRUE(t.Insert(0, first).ok());
  Record* pinned = t.Find(0);
  ASSERT_NE(pinned, nullptr);
  for (Key k = 1; k < 1000; ++k) ASSERT_TRUE(t.Insert(k, Record(2)).ok());
  EXPECT_EQ(t.Find(0), pinned);
  EXPECT_EQ(pinned->Get(1), 77);
}

std::vector<TableSpec> TwoTableSchema() {
  return {TableSpec{.name = "a", .id = 0, .num_fields = 2,
                    .buckets_per_partition = 64},
          TableSpec{.name = "b", .id = 3, .num_fields = 1,
                    .buckets_per_partition = 64}};
}

TEST(PartitionStoreTest, SparseTableIds) {
  PartitionStore store(0, TwoTableSchema());
  EXPECT_EQ(store.table(0)->spec().name, "a");
  EXPECT_EQ(store.table(3)->spec().name, "b");
}

TEST(PartitionStoreTest, LockUnlockTracking) {
  PartitionStore store(0, TwoTableSchema());
  const RecordId rid{0, 42};
  ASSERT_TRUE(store.Insert(rid, Record(2)).ok());
  EXPECT_TRUE(store.TryLock(rid, LockMode::kExclusive).ok());
  EXPECT_EQ(store.locks_held(), 1u);
  EXPECT_TRUE(store.TryLock(rid, LockMode::kShared).IsAborted());
  store.Unlock(rid, LockMode::kExclusive, /*modified=*/true);
  EXPECT_EQ(store.locks_held(), 0u);
  EXPECT_EQ(store.VersionOf(rid), 1u);
}

TEST(PartitionStoreTest, NoWaitConflictAcrossKeysInBucket) {
  std::vector<TableSpec> schema = {TableSpec{
      .name = "a", .id = 0, .num_fields = 1, .buckets_per_partition = 1}};
  PartitionStore store(0, schema);
  ASSERT_TRUE(store.Insert(RecordId{0, 1}, Record(1)).ok());
  ASSERT_TRUE(store.Insert(RecordId{0, 2}, Record(1)).ok());
  ASSERT_TRUE(store.TryLock(RecordId{0, 1}, LockMode::kExclusive).ok());
  EXPECT_TRUE(store.TryLock(RecordId{0, 2}, LockMode::kShared).IsAborted());
  store.Unlock(RecordId{0, 1}, LockMode::kExclusive, false);
}

TEST(PartitionStoreTest, RecordCount) {
  PartitionStore store(0, TwoTableSchema());
  ASSERT_TRUE(store.Insert(RecordId{0, 1}, Record(2)).ok());
  ASSERT_TRUE(store.Insert(RecordId{3, 1}, Record(1)).ok());
  EXPECT_EQ(store.num_records(), 2u);
  ASSERT_TRUE(store.Erase(RecordId{3, 1}).ok());
  EXPECT_EQ(store.num_records(), 1u);
}

// ---------------------------------------------------------------------------
// Record migration API (online repartitioning)
// ---------------------------------------------------------------------------

TEST(PartitionStoreTest, ExtractInstallRoundtrip) {
  PartitionStore from(0, TwoTableSchema());
  PartitionStore to(1, TwoTableSchema());
  Record r(2);
  r.Set(0, 11);
  r.Set(1, 22);
  ASSERT_TRUE(from.Insert(RecordId{0, 7}, r).ok());

  auto extracted = from.ExtractRecord(RecordId{0, 7});
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  EXPECT_EQ(from.num_records(), 0u);
  EXPECT_EQ(from.Find(RecordId{0, 7}), nullptr);

  ASSERT_TRUE(
      to.InstallRecord(RecordId{0, 7}, std::move(extracted).value()).ok());
  Record* moved = to.Find(RecordId{0, 7});
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->Get(0), 11);
  EXPECT_EQ(moved->Get(1), 22);
}

TEST(PartitionStoreTest, ExtractMissingRecordIsNotFound) {
  PartitionStore store(0, TwoTableSchema());
  EXPECT_TRUE(store.ExtractRecord(RecordId{0, 9}).status().IsNotFound());
}

TEST(PartitionStoreTest, MigrationRefusesLockedBuckets) {
  PartitionStore store(0, TwoTableSchema());
  ASSERT_TRUE(store.Insert(RecordId{0, 4}, Record(2)).ok());
  ASSERT_TRUE(store.TryLock(RecordId{0, 4}, LockMode::kShared).ok());
  EXPECT_TRUE(
      store.ExtractRecord(RecordId{0, 4}).status().IsFailedPrecondition());
  // Locking is per bucket: another key colliding into the locked bucket
  // is just as unmovable.
  Key collider = 5;
  while (store.table(0)->BucketIndex(collider) !=
         store.table(0)->BucketIndex(4)) {
    ++collider;
  }
  EXPECT_TRUE(store.InstallRecord(RecordId{0, collider}, Record(2))
                  .IsFailedPrecondition());
  store.Unlock(RecordId{0, 4}, LockMode::kShared, false);
  EXPECT_TRUE(store.ExtractRecord(RecordId{0, 4}).ok());
}

TEST(PartitionStoreTest, ExtractInstallChurnReusesSlabEntries) {
  PartitionStore from(0, TwoTableSchema());
  PartitionStore to(1, TwoTableSchema());
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(from.Insert(RecordId{0, k}, Record(2)).ok());
  }
  // One round trip sizes both slabs; later rounds must only reuse them.
  auto move_all = [](PartitionStore* src, PartitionStore* dst) {
    for (Key k = 0; k < 500; ++k) {
      auto rec = src->ExtractRecord(RecordId{0, k});
      ASSERT_TRUE(rec.ok());
      ASSERT_TRUE(dst->InstallRecord(RecordId{0, k}, rec.value()).ok());
    }
  };
  move_all(&from, &to);
  move_all(&to, &from);
  const size_t from_capacity = from.table(0)->slab_capacity();
  const size_t to_capacity = to.table(0)->slab_capacity();
  EXPECT_GE(from_capacity, 500u);
  for (int round = 0; round < 10; ++round) {
    move_all(&from, &to);
    move_all(&to, &from);
  }
  EXPECT_EQ(from.table(0)->slab_capacity(), from_capacity);
  EXPECT_EQ(to.table(0)->slab_capacity(), to_capacity);
  EXPECT_EQ(from.num_records(), 500u);
  EXPECT_EQ(to.num_records(), 0u);
}

TEST(PartitionStoreTest, InstallDuplicateIsFailedPrecondition) {
  PartitionStore store(0, TwoTableSchema());
  ASSERT_TRUE(store.Insert(RecordId{0, 4}, Record(2)).ok());
  EXPECT_TRUE(store.InstallRecord(RecordId{0, 4}, Record(2))
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace chiller::storage
