#ifndef VERSO_STORE_STORE_H_
#define VERSO_STORE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/io.h"
#include "util/result.h"

namespace verso {

/// Which Store implementation backs a database directory.
enum class StoreBackend : uint8_t {
  /// Every commit applies its ops to the maps in place and rewrites
  /// `<dir>/store.img` — one CRC'd WAL frame holding the whole image —
  /// synced, then installed by atomic rename, then the directory synced.
  /// O(base) bytes per commit however few ops it carries, simplest crash
  /// story (the rename is the only commit point): the right trade for
  /// small bases.
  kMem = 0,
  /// Append-only page log `<dir>/store.plog`: each commit appends one
  /// CRC'd WAL frame of put/delete ops and syncs it, the maps are rebuilt
  /// by replay on open, and the log compacts itself once dead bytes
  /// dominate. O(delta) per commit — the backend shape for bases that
  /// outgrow whole-image rewrites.
  kPageLog = 1,
};

/// "mem" / "pagelog" — stable names used by env knobs and test output.
const char* StoreBackendName(StoreBackend backend);
/// Inverse of StoreBackendName; kInvalidArgument for unknown names.
Result<StoreBackend> ParseStoreBackend(std::string_view name);

class Store;

/// A staged batch of writes, atomic at Commit(): either every data op and
/// meta write is durable and visible, or none is. Destroying an
/// uncommitted transaction discards the staging buffer (abort).
class WriteTransaction {
 public:
  struct Op {
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
  /// order, through the owning backend. At most once per transaction; a
  /// failed commit, a failed sync included, leaves the store's maps
  /// unchanged (both backends commit atomically) and the transaction may
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
/// Both backends serve reads from the same in-memory maps, held here; a
/// backend only loads them at open and makes each commit durable.
///
/// Not thread-safe; one writer per directory (the embedded contract the
/// Database layer already imposes).
class Store {
 public:
  /// Heterogeneous-lookup ordered maps: Scan is an in-order walk, prefix
  /// seeks use lower_bound on string_views without allocating.
  using DataMap = std::map<std::string, std::string, std::less<>>;
  using MetaMap = std::map<std::string, uint64_t, std::less<>>;

  virtual ~Store() = default;

  /// StoreBackendName of this backend.
  virtual const char* name() const = 0;

  WriteTransaction BeginWrite() { return WriteTransaction(this); }

  /// Range scan: every entry whose key starts with `prefix` (all entries
  /// for an empty prefix), ascending by key.
  Status Scan(std::string_view prefix, const ScanFn& fn) const;
  /// The named meta-table entry, or kNotFound.
  Result<uint64_t> GetMeta(std::string_view name) const;
  /// Live data keys (meta entries not counted).
  size_t key_count() const { return data_.size(); }

 protected:
  friend class WriteTransaction;
  /// Applies one staged batch atomically: durable first, visible after.
  virtual Status ApplyCommit(const WriteTransaction& txn) = 0;
  /// Applies `txn`'s ops to the maps in staging order (deletes of absent
  /// keys are no-ops).
  static void ApplyOps(const WriteTransaction& txn, DataMap& data,
                       MetaMap& meta);

  DataMap data_;
  MetaMap meta_;
};

/// Opens the chosen backend rooted in `dir` (created if needed; every
/// byte through `env`, nullptr = Env::Default()). Refuses an empty `dir`
/// (kInvalidArgument), and a store whose on-disk format version is newer
/// than this build understands.
Result<std::unique_ptr<Store>> OpenStore(StoreBackend backend,
                                         const std::string& dir,
                                         Env* env = nullptr);

}  // namespace verso

#endif  // VERSO_STORE_STORE_H_
