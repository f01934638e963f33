#ifndef VERSO_STORE_STORE_H_
#define VERSO_STORE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/io.h"
#include "util/result.h"

namespace verso {

class Store;

/// A staged batch of writes, atomic at Commit(): either every data op and
/// meta write is durable and visible, or none is. Destroying an
/// uncommitted transaction discards the staging buffer (abort).
class WriteTransaction {
 public:
  struct Op {
    /// kPut and kPutMeta are also the entry kind bytes of the image.
    enum class Kind : uint8_t { kPut = 0, kDelete = 1, kPutMeta = 2 };
    Kind kind;
    std::string key;
    std::string value;  // kPut payload
    uint64_t meta = 0;  // kPutMeta payload
  };

  WriteTransaction(WriteTransaction&&) = default;
  WriteTransaction& operator=(WriteTransaction&&) = delete;

  void Put(std::string key, std::string value);
  void Delete(std::string key);
  /// Writes one named u64 in the store's meta table (format version,
  /// checkpoint generation) atomically with the data ops.
  void PutMeta(std::string name, uint64_t value);

  /// Makes the staged ops durable (synced) and visible, in staging
  /// order. At most once per transaction; a failed commit, a failed sync
  /// included, leaves the store's maps unchanged and the transaction may
  /// not be retried — stage a fresh one.
  Status Commit();

  bool committed() const { return committed_; }
  const std::vector<Op>& ops() const { return ops_; }

 private:
  friend class Store;
  explicit WriteTransaction(Store* store) : store_(store) {}

  Store* store_;
  bool committed_ = false;
  std::vector<Op> ops_;
};

/// Scan callback: invoked once per (key, value) in ascending key order;
/// returning an error stops the scan and propagates out of Scan.
using ScanFn =
    std::function<Status(std::string_view key, std::string_view value)>;

/// The storage component the database checkpoints into: ordered key/value
/// state plus a small named-u64 meta table, written under explicit
/// transactions (nano-node's `nano/store/` component shape). The
/// database keys encoded object-version records under it ("b/" + version
/// key) and tracks its checkpoint generation in the meta table; the
/// evaluator never sees the store.
///
/// Reads are served from in-memory maps. Every commit applies its ops to
/// them in place and rewrites `<dir>/store.img` — one CRC'd WAL frame
/// holding the whole image — installed by Env::WriteFileAtomic: the image
/// is synced, renamed into place, then the directory synced. The rename
/// is the only commit point, so a crash anywhere leaves the old image or
/// the new one, never a blend, and a failed write undoes the in-place
/// apply.
///
/// Not thread-safe; one writer per directory (the embedded contract the
/// Database layer already imposes).
class Store {
 public:
  /// Heterogeneous-lookup ordered maps: Scan is an in-order walk, prefix
  /// seeks use lower_bound on string_views without allocating.
  using DataMap = std::map<std::string, std::string, std::less<>>;
  using MetaMap = std::map<std::string, uint64_t, std::less<>>;

  /// Opens the store rooted in `dir` (created if needed; every byte
  /// through `env`, nullptr = Env::Default()). Refuses an empty `dir`
  /// (kInvalidArgument), an image that is not exactly one intact frame
  /// (kCorruption: the image is the checkpoint of record, so damage must
  /// not read as an empty store), and an image whose format version is
  /// newer than this build understands (kInvalidArgument).
  static Result<std::unique_ptr<Store>> Open(const std::string& dir,
                                             Env* env = nullptr);

  WriteTransaction BeginWrite() { return WriteTransaction(this); }

  /// Range scan: every entry whose key starts with `prefix` (all entries
  /// for an empty prefix), ascending by key.
  Status Scan(std::string_view prefix, const ScanFn& fn) const;
  /// The named meta-table entry, or kNotFound.
  Result<uint64_t> GetMeta(std::string_view name) const;
  /// Live data keys (meta entries not counted).
  size_t key_count() const { return data_.size(); }

 private:
  friend class WriteTransaction;
  Store(std::string path, Env* env) : path_(std::move(path)), env_(env) {}

  /// Applies one staged batch to the maps and rewrites the image; a
  /// failed write undoes the apply.
  Status Apply(const WriteTransaction& txn);

  std::string path_;
  Env* env_;
  DataMap data_;
  MetaMap meta_;
};

}  // namespace verso

#endif  // VERSO_STORE_STORE_H_
