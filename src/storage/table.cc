#include "storage/table.h"

#include <algorithm>
#include <new>
#include <utility>

#include "common/logging.h"

namespace chiller::storage {

namespace {
// SplitMix64 finalizer: spreads sequential keys across buckets.
size_t HashKey(Key key) {
  uint64_t x = key;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

// Slab chunk sizes double from kFirstChunkEntries up to kMaxChunkEntries
// (5.5 MiB of entries), which bounds the unused tail of the newest chunk.
constexpr size_t kFirstChunkEntries = 4;
constexpr size_t kMaxChunkEntries = size_t{1} << 16;
}  // namespace

Table::Table(TableSpec spec) : spec_(std::move(spec)) {
  CHILLER_CHECK(spec_.buckets_per_partition > 0);
  CHILLER_CHECK(spec_.num_fields <= kMaxFields)
      << "table " << spec_.name << " declares " << spec_.num_fields
      << " fields; records hold at most kMaxFields (" << kMaxFields << ")";
  buckets_.resize(spec_.buckets_per_partition);
}

size_t Table::BucketIndex(Key key) const {
  return HashKey(key) % buckets_.size();
}

Bucket* Table::BucketFor(Key key) { return &buckets_[BucketIndex(key)]; }

const Bucket* Table::BucketFor(Key key) const {
  return &buckets_[BucketIndex(key)];
}

Bucket* Table::BucketAt(size_t index) {
  CHILLER_DCHECK(index < buckets_.size());
  return &buckets_[index];
}

Record* Table::Find(Key key) {
  for (BucketEntry* e = BucketFor(key)->head_; e != nullptr; e = e->next) {
    if (e->key == key) return &e->record;
  }
  return nullptr;
}

Status Table::Insert(Key key, Record record) {
  BucketEntry** link = &BucketFor(key)->head_;
  for (; *link != nullptr; link = &(*link)->next) {
    if ((*link)->key == key) return Status::FailedPrecondition("duplicate key");
  }
  *link = new (AllocateEntry()) BucketEntry{key, nullptr, record};
  ++num_records_;
  return Status::OK();
}

Status Table::Erase(Key key) {
  BucketEntry* hit = nullptr;
  BucketEntry** last_link = nullptr;  // the link that points at the tail
  for (BucketEntry** link = &BucketFor(key)->head_; *link != nullptr;
       link = &(*link)->next) {
    if ((*link)->key == key) hit = *link;
    last_link = link;
  }
  if (hit == nullptr) return Status::NotFound();
  // Swap-with-last: the tail entry fills the hole (see the order contract).
  BucketEntry* last = *last_link;
  if (hit != last) {
    hit->key = last->key;
    hit->record = last->record;
  }
  *last_link = nullptr;
  last->next = free_;
  free_ = last;
  --num_records_;
  return Status::OK();
}

BucketEntry* Table::AllocateEntry() {
  if (free_ != nullptr) {
    BucketEntry* e = free_;
    free_ = e->next;
    return e;
  }
  if (chunk_used_ == chunk_size_) {
    chunk_size_ = chunk_size_ == 0
                      ? kFirstChunkEntries
                      : std::min(2 * chunk_size_, kMaxChunkEntries);
    // Raw storage: slots are constructed as they are handed out, so the
    // unused tail of a fresh chunk is never written.
    chunks_.emplace_back(static_cast<BucketEntry*>(
        ::operator new(chunk_size_ * sizeof(BucketEntry))));
    chunk_used_ = 0;
    slab_capacity_ += chunk_size_;
  }
  return chunks_.back().get() + chunk_used_++;
}

}  // namespace chiller::storage
