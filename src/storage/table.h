// A table: an array of lock-carrying buckets within one partition.
#ifndef CHILLER_STORAGE_TABLE_H_
#define CHILLER_STORAGE_TABLE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/bucket.h"
#include "storage/record.h"

namespace chiller::storage {

/// Per-partition slice of one logical table. Keys hash onto a fixed array of
/// buckets; the bucket's embedded lock word is the locking granule, so two
/// keys colliding into one bucket contend (as in the real system — size
/// buckets_per_partition accordingly).
///
/// Records live inline in a per-table slab: chunks of BucketEntry that grow
/// geometrically from a few entries, so a one-row table stays small and a
/// large one costs a handful of allocations. Entry addresses never move on
/// insert, erased entries are reused through a free list, and destroying a
/// table frees one block per chunk, not one per record.
///
/// Order contract: a bucket's chain keeps insertion order, and Erase fills
/// the hole with the chain's last entry — exactly what a per-bucket vector
/// erased by swap-with-last did — so ForEach order (which migration plans
/// and move batches follow) is a pure function of the insert/erase history.
class Table {
 public:
  explicit Table(TableSpec spec);

  const TableSpec& spec() const { return spec_; }

  /// The bucket that owns `key` (never null).
  Bucket* BucketFor(Key key);
  const Bucket* BucketFor(Key key) const;

  /// Index of the owning bucket — the "remote address" a one-sided op needs.
  size_t BucketIndex(Key key) const;
  Bucket* BucketAt(size_t index);

  /// Looks up a record; does not touch locks. The pointer stays valid until
  /// an Erase in the same bucket.
  Record* Find(Key key);

  /// Inserts a record. Fails with FailedPrecondition on duplicate key.
  Status Insert(Key key, Record record);

  /// Removes a record. Fails with NotFound if absent.
  Status Erase(Key key);

  size_t num_buckets() const { return buckets_.size(); }
  size_t num_records() const { return num_records_; }

  /// Entries the slab has allocated (live records plus free-list slots).
  size_t slab_capacity() const { return slab_capacity_; }

  /// Visits every (key, record) in the table: buckets in index order, each
  /// chain in the order of the contract above.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& b : buckets_) {
      for (const BucketEntry* e = b.head_; e != nullptr; e = e->next) {
        fn(e->key, e->record);
      }
    }
  }

 private:
  struct ChunkDeleter {
    void operator()(BucketEntry* chunk) const { ::operator delete(chunk); }
  };

  /// A free-list slot if there is one, else the next unused slot of the
  /// newest chunk (adding a chunk when it is full).
  BucketEntry* AllocateEntry();

  TableSpec spec_;
  std::vector<Bucket> buckets_;
  size_t num_records_ = 0;

  std::vector<std::unique_ptr<BucketEntry, ChunkDeleter>> chunks_;
  size_t chunk_size_ = 0;  ///< capacity of chunks_.back()
  size_t chunk_used_ = 0;  ///< slots of chunks_.back() handed out so far
  size_t slab_capacity_ = 0;
  BucketEntry* free_ = nullptr;  ///< erased entries, linked through `next`
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_TABLE_H_
