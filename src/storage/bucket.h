// Hash bucket with an embedded lock word (NAM-DB style, paper Section 6).
#ifndef CHILLER_STORAGE_BUCKET_H_
#define CHILLER_STORAGE_BUCKET_H_

#include <cstdint>
#include <type_traits>

#include "common/types.h"
#include "storage/lock_word.h"
#include "storage/record.h"

namespace chiller::storage {

/// One stored record: its key, the next entry of its bucket's chain, and
/// the record itself inline. Entries live in their table's slab (table.h),
/// so their addresses stay stable across inserts.
struct BucketEntry {
  Key key;
  BucketEntry* next;
  Record record;
};
static_assert(std::is_trivially_copyable_v<BucketEntry> &&
                  std::is_trivially_destructible_v<BucketEntry>,
              "slab chunks are freed without running destructors");

/// One hash bucket: a chain of records sharing a single lock word.
/// "Buckets are locked when any of their records are being accessed, and the
/// lock remains until the transaction commits or aborts" (Section 6).
/// Overflow is modeled by the chain: every entry past the first is an
/// overflow slot chained off the primary, sharing its lock. The owning
/// Table manages the chain; a Bucket is just the lock word and chain head.
class Bucket {
 public:
  Bucket() : lock_(LockWord::MakeFree(0)) {}

  /// The raw lock word; remote engines CAS this via one-sided RDMA.
  uint64_t lock_word() const { return lock_; }
  uint64_t* mutable_lock_word() { return &lock_; }

  bool TryLockShared() { return LockWord::TryAcquireShared(&lock_); }
  bool TryLockExclusive() { return LockWord::TryAcquireExclusive(&lock_); }
  void UnlockShared() { LockWord::ReleaseShared(&lock_); }
  void UnlockExclusive(bool modified) {
    LockWord::ReleaseExclusive(&lock_, modified);
  }
  uint64_t version() const { return LockWord::Version(lock_); }

 private:
  friend class Table;

  uint64_t lock_;
  BucketEntry* head_ = nullptr;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_BUCKET_H_
