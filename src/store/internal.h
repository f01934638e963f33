#ifndef VERSO_STORE_INTERNAL_H_
#define VERSO_STORE_INTERNAL_H_

// Shared between the store backends (not part of the public store API):
// the record codec both backends frame their bytes with, and the store.*
// metric handles.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "store/store.h"
#include "util/result.h"

namespace verso {
namespace store_internal {

/// On-disk format version. Every commit stamps it into the meta table
/// (WriteTransaction::Commit adds the entry if the caller didn't), so any
/// non-empty store names the format it was written by and a newer-format
/// store is refused at open instead of misread.
constexpr uint64_t kFormatVersion = 1;
constexpr char kFormatMetaKey[] = "format";

/// Record payload: varint op count, then per op a kind byte
/// (WriteTransaction::Op::Kind), the key, and the value (length-prefixed
/// string for puts, varint for meta). One format serializes both a
/// commit's staged ops (page-log appends) and a whole live image (mem
/// images, page-log compaction) — an image is just one big commit of
/// every live entry.
std::string EncodeOps(const std::vector<WriteTransaction::Op>& ops);
std::string EncodeImage(const Store::DataMap& data,
                        const Store::MetaMap& meta);
/// Applies one record to the maps in op order (deletes erase; absent-key
/// deletes are no-ops, so replay is idempotent).
Status ApplyRecord(std::string_view payload, Store::DataMap& data,
                   Store::MetaMap& meta);

/// Rejects stores written by a newer build.
Status CheckFormat(const Store::MetaMap& meta, const char* backend);

/// store.* handles into the global registry, bound once (registration
/// takes a mutex; store ops must not).
struct Metrics {
  Counter& puts;
  Counter& deletes;
  Counter& scans;
  Counter& commits;
  Counter& compactions;
  Histogram& commit_us;

  static Metrics& Get();
  explicit Metrics(MetricsRegistry& registry);
};

}  // namespace store_internal
}  // namespace verso

#endif  // VERSO_STORE_INTERNAL_H_
