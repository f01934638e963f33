#include "store/page_log_store.h"

#include <utility>

#include "store/internal.h"

namespace verso {

Result<std::unique_ptr<PageLogStore>> PageLogStore::Open(
    const std::string& dir, Env* env) {
  std::unique_ptr<PageLogStore> store(
      new PageLogStore(dir + "/store.plog", env));
  VERSO_ASSIGN_OR_RETURN(WalReadResult log, ReadWal(store->path_, env));
  for (const std::string& record : log.records) {
    VERSO_RETURN_IF_ERROR(
        store_internal::ApplyRecord(record, store->data_, store->meta_));
  }
  store->recovered_torn_ = log.truncated_tail;
  if (log.truncated_tail) {
    // Crashed mid-append: chop the torn frame so the next append extends
    // the valid prefix instead of burying commits behind garbage. The
    // checkpoint that was writing it never acknowledged — the database's
    // WAL still holds its commits — so nothing is lost.
    VERSO_RETURN_IF_ERROR(
        env->TruncateFile(store->path_, log.valid_bytes));
  }
  store->bytes_ = log.valid_bytes;
  VERSO_RETURN_IF_ERROR(store_internal::CheckFormat(store->meta_, "pagelog"));
  return store;
}

Status PageLogStore::ApplyCommit(const WriteTransaction& txn) {
  if (!tail_valid_) {
    return Status::IoError(
        "page log tail is unknown after a failed append; reopen the store");
  }
  std::string payload = store_internal::EncodeOps(txn.ops());
  // The commit is durable once the frame is synced — and, when the log
  // was empty (the append may have created it), once its directory entry
  // is too.
  Status appended = writer_.Append(payload);
  if (appended.ok()) appended = env_->SyncFile(path_);
  if (appended.ok() && bytes_ == 0) appended = env_->SyncDir(DirName(path_));
  if (!appended.ok()) {
    // A failed append may have landed a partial frame, and a failed sync
    // leaves a whole frame the maps do not hold; roll the file back to
    // the pre-append tail so a later commit extends valid data and the
    // log replays to the maps. If the rollback itself fails the tail is
    // unknown — refuse further writes (reads keep serving; reopen
    // re-derives the tail from the CRCs).
    Status rolled = env_->FileExists(path_)
                        ? env_->TruncateFile(path_, bytes_)
                        : Status::Ok();
    if (!rolled.ok()) tail_valid_ = false;
    return appended;
  }
  bytes_ += payload.size() + 12;  // 12-byte frame header + payload
  ApplyOps(txn, data_, meta_);
  MaybeCompact();
  return Status::Ok();
}

size_t PageLogStore::live_payload_bytes() const {
  size_t bytes = 0;
  for (const auto& [key, value] : data_) {
    bytes += key.size() + value.size() + 4;  // + op framing overhead
  }
  for (const auto& [name, value] : meta_) {
    (void)value;
    bytes += name.size() + 12;
  }
  return bytes;
}

void PageLogStore::MaybeCompact() {
  if (bytes_ < kCompactMinBytes) return;
  size_t live = live_payload_bytes();
  if (bytes_ <= kCompactDeadFactor * live) return;
  // Rewrite the live image as one frame and install it over the log by
  // atomic rename: a crash at any point leaves either the old log or the
  // compacted one, both replaying to the identical index. Best-effort —
  // on failure the un-compacted log still holds everything, so the error
  // is swallowed and the next commit retries the size check.
  Result<std::string> frame =
      EncodeWalFrame(store_internal::EncodeImage(data_, meta_));
  if (!frame.ok()) return;
  if (!env_->WriteFileAtomic(path_, *frame).ok()) return;
  bytes_ = frame->size();
  store_internal::Metrics::Get().compactions.Add();
}

}  // namespace verso
