// Fixed-layout in-memory record.
#ifndef CHILLER_STORAGE_RECORD_H_
#define CHILLER_STORAGE_RECORD_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "common/logging.h"

namespace chiller::storage {

/// Widest record any table may declare (ycsb's 8 fields are the widest
/// schema today). Records are stored inline at this width.
inline constexpr size_t kMaxFields = 8;

/// Read-only view of a record's live fields; compares element-wise, so two
/// records with equal prefixes but different field counts are unequal.
class FieldsView {
 public:
  FieldsView(const int64_t* data, size_t size) : data_(data), size_(size) {}

  const int64_t* begin() const { return data_; }
  const int64_t* end() const { return data_ + size_; }

  friend bool operator==(const FieldsView& a, const FieldsView& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const int64_t* data_;
  size_t size_;
};

/// Prints `{f0, f1, ...}` (gtest picks this up through ADL).
inline void PrintTo(const FieldsView& v, std::ostream* os) {
  const char* sep = "";
  *os << "{";
  for (int64_t f : v) {
    *os << sep << f;
    sep = ", ";
  }
  *os << "}";
}

/// A record is up to kMaxFields 64-bit fields plus a declared wire size,
/// held inline: copying one is a memcpy, never a heap allocation, and a
/// table stores records directly in its slab entries (see table.h).
/// All workloads in this repo (TPC-C, Instacart-like, flight booking, YCSB)
/// encode their columns into int64 fields; `wire_bytes` preserves the real
/// payload size for the network cost model. A default-constructed record
/// has no fields and reports `wire_bytes() == 0` (an erase image).
class Record {
 public:
  Record() = default;
  explicit Record(size_t num_fields, size_t wire_bytes = 0)
      : num_fields_(static_cast<uint32_t>(num_fields)),
        wire_bytes_(static_cast<uint32_t>(
            wire_bytes == 0 ? num_fields * 8 : wire_bytes)) {
    CHILLER_CHECK(num_fields <= kMaxFields)
        << "record of " << num_fields << " fields exceeds kMaxFields ("
        << kMaxFields << ")";
  }

  int64_t Get(size_t i) const {
    CHILLER_DCHECK(i < num_fields_);
    return fields_[i];
  }
  void Set(size_t i, int64_t v) {
    CHILLER_DCHECK(i < num_fields_);
    fields_[i] = v;
  }
  void Add(size_t i, int64_t delta) { Set(i, Get(i) + delta); }

  size_t num_fields() const { return num_fields_; }
  size_t wire_bytes() const { return wire_bytes_; }

  FieldsView fields() const { return FieldsView(fields_.data(), num_fields_); }

 private:
  std::array<int64_t, kMaxFields> fields_{};
  uint32_t num_fields_ = 0;
  uint32_t wire_bytes_ = 0;
};

/// Static description of one table.
struct TableSpec {
  std::string name;
  uint16_t id = 0;
  /// Fields per record; at most kMaxFields.
  size_t num_fields = 1;
  /// Serialized record size for the network model (0 = 8 * num_fields).
  size_t wire_bytes = 0;
  /// Buckets per partition; keys hash onto buckets, whose embedded lock is
  /// the unit of locking (Section 6).
  size_t buckets_per_partition = 1 << 12;
};

}  // namespace chiller::storage

#endif  // CHILLER_STORAGE_RECORD_H_
