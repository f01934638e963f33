#include "store/mem_store.h"

#include <utility>

#include "storage/wal.h"
#include "store/internal.h"

namespace verso {

Result<std::unique_ptr<MemStore>> MemStore::Open(const std::string& dir,
                                                 Env* env) {
  std::unique_ptr<MemStore> store(new MemStore(dir + "/store.img", env));
  if (env->FileExists(store->path_)) {
    // The image is exactly one frame; WriteFileAtomic installed it, so
    // anything else — a torn frame, trailing bytes, several frames — is
    // damage, not a crash artifact, and must fail the open.
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
  // Durability first, on a scratch copy: the new image hits disk before
  // memory moves, and a failed write leaves the live maps (and the old
  // image, untouched by WriteFileAtomic) exactly as they were.
  DataMap data = data_;
  MetaMap meta = meta_;
  ApplyOps(txn, data, meta);
  VERSO_ASSIGN_OR_RETURN(
      std::string frame,
      EncodeWalFrame(store_internal::EncodeImage(data, meta)));
  VERSO_RETURN_IF_ERROR(env_->WriteFileAtomic(path_, frame));
  data_ = std::move(data);
  meta_ = std::move(meta);
  return Status::Ok();
}

}  // namespace verso
