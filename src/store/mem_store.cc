#include "store/mem_store.h"

#include <optional>
#include <utility>
#include <vector>

#include "storage/wal.h"
#include "store/internal.h"

namespace verso {

Result<std::unique_ptr<MemStore>> MemStore::Open(const std::string& dir,
                                                 Env* env) {
  std::unique_ptr<MemStore> store(new MemStore(dir + "/store.img", env));
  if (env->FileExists(store->path_)) {
    // The image is exactly one frame; WriteFileAtomic installed it, so
    // anything else — a torn frame, trailing bytes, several frames — is
    // damage, not a crash artifact, and must fail the open. That holds
    // for a power cut too: the image is synced before its rename, so the
    // name cannot reach disk ahead of the bytes, and a zero-filled tail
    // (a length that reached disk before its data) cannot be installed.
    VERSO_ASSIGN_OR_RETURN(WalReadResult image,
                           ReadWal(store->path_, env));
    if (image.truncated_tail || image.records.size() != 1) {
      return Status::Corruption("mem store image '" + store->path_ +
                                "' is damaged");
    }
    VERSO_RETURN_IF_ERROR(store_internal::ApplyRecord(
        image.records[0], store->data_, store->meta_));
    VERSO_RETURN_IF_ERROR(store_internal::CheckFormat(store->meta_, "mem"));
  }
  return store;
}

Status MemStore::ApplyCommit(const WriteTransaction& txn) {
  // The ops go into the live maps in place, each data op remembering the
  // entry it replaced (meta holds a handful of entries and is copied);
  // a failed write puts them back in reverse order, so the maps (and the
  // old image, untouched by WriteFileAtomic) end exactly as they were.
  // No copy of the data map: a commit costs its ops plus the image encode.
  using Kind = WriteTransaction::Op::Kind;
  MetaMap meta = meta_;
  std::vector<std::pair<const std::string*, std::optional<std::string>>> undo;
  for (const WriteTransaction::Op& op : txn.ops()) {
    if (op.kind == Kind::kPutMeta) {
      meta_[op.key] = op.meta;
      continue;
    }
    auto it = data_.find(op.key);
    if (it == data_.end()) {
      undo.emplace_back(&op.key, std::nullopt);
      if (op.kind == Kind::kPut) data_.emplace(op.key, op.value);
      continue;
    }
    undo.emplace_back(&op.key, std::move(it->second));
    if (op.kind == Kind::kPut) {
      it->second = op.value;
    } else {
      data_.erase(it);
    }
  }
  Result<std::string> frame =
      EncodeWalFrame(store_internal::EncodeImage(data_, meta_));
  Status written =
      frame.ok() ? env_->WriteFileAtomic(path_, *frame) : frame.status();
  if (written.ok()) return Status::Ok();
  meta_ = std::move(meta);
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    if (it->second.has_value()) {
      data_[*it->first] = std::move(*it->second);
    } else {
      data_.erase(*it->first);
    }
  }
  return written;
}

}  // namespace verso
