#ifndef VERSO_STORE_MEM_STORE_H_
#define VERSO_STORE_MEM_STORE_H_

#include <memory>
#include <string>

#include "store/store.h"
#include "util/io.h"
#include "util/result.h"

namespace verso {

/// Whole-image backend (StoreBackend::kMem): every commit rewrites
/// `<dir>/store.img` — one CRC'd WAL frame holding the whole image —
/// installed by Env::WriteFileAtomic, so the rename is the only commit
/// point and a crash anywhere leaves either the old image or the new one,
/// never a blend; the image is synced before the rename, so a power cut
/// cannot install it ahead of its bytes either.
class MemStore : public Store {
 public:
  /// An existing image that fails its CRC or decode refuses to open: the
  /// image is the checkpoint of record, so damage must surface instead of
  /// silently reading as an empty store.
  static Result<std::unique_ptr<MemStore>> Open(const std::string& dir,
                                                Env* env);

  const char* name() const override { return "mem"; }

 protected:
  Status ApplyCommit(const WriteTransaction& txn) override;

 private:
  MemStore(std::string path, Env* env)
      : path_(std::move(path)), env_(env) {}

  std::string path_;
  Env* env_;
};

}  // namespace verso

#endif  // VERSO_STORE_MEM_STORE_H_
