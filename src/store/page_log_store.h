#ifndef VERSO_STORE_PAGE_LOG_STORE_H_
#define VERSO_STORE_PAGE_LOG_STORE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "storage/wal.h"
#include "store/store.h"
#include "util/io.h"
#include "util/result.h"

namespace verso {

/// Append-only page-log backend (StoreBackend::kPageLog). The data file
/// `<dir>/store.plog` is a sequence of CRC'd WAL frames, one per
/// committed transaction, each carrying that commit's put/delete/meta ops
/// and synced before the commit returns (with the directory, when the
/// append creates the file); the maps are rebuilt on open by replaying
/// the log in order. A torn final frame (crashed writer) is chopped on
/// open — the standard crashed-writer contract the WAL itself uses.
/// Commits are O(delta); once dead bytes dominate (overwrites and
/// deletes), the log compacts itself by atomically replacing the file
/// with one frame holding the live image.
class PageLogStore : public Store {
 public:
  static Result<std::unique_ptr<PageLogStore>> Open(const std::string& dir,
                                                    Env* env);

  const char* name() const override { return "pagelog"; }

  /// True if open found (and chopped) a torn final frame.
  bool recovered_torn_tail() const { return recovered_torn_; }
  /// Current byte length of the log file.
  size_t log_bytes() const { return bytes_; }

  /// Compaction triggers when the log passes kCompactMinBytes AND holds
  /// more than kCompactDeadFactor bytes per live payload byte.
  static constexpr size_t kCompactMinBytes = 64u << 10;  // 64 KiB
  static constexpr size_t kCompactDeadFactor = 3;

 protected:
  Status ApplyCommit(const WriteTransaction& txn) override;

 private:
  PageLogStore(std::string path, Env* env)
      : path_(std::move(path)), writer_(path_, env), env_(env) {}

  /// An approximation of one frame's worth of the live image, to decide
  /// when compaction pays. Exact accounting isn't needed — the factor is
  /// a heuristic — but it must never overestimate so badly that
  /// compaction loops.
  size_t live_payload_bytes() const;
  void MaybeCompact();

  std::string path_;
  WalWriter writer_;
  Env* env_;
  size_t bytes_ = 0;
  bool recovered_torn_ = false;
  /// False after a failed append whose rollback also failed: the tail may
  /// hold a partial frame that a further append would bury, so the store
  /// refuses writes until reopened.
  bool tail_valid_ = true;
};

}  // namespace verso

#endif  // VERSO_STORE_PAGE_LOG_STORE_H_
