#include "store/store.h"

#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "storage/codec.h"
#include "storage/wal.h"

namespace verso {

namespace {

using Kind = WriteTransaction::Op::Kind;

/// On-disk format version. Every commit stamps it into the meta table
/// (WriteTransaction::Commit adds the entry if the caller didn't), so any
/// non-empty store names the format it was written by and a newer-format
/// store is refused at open instead of misread.
constexpr uint64_t kFormatVersion = 1;
constexpr char kFormatMetaKey[] = "format";

/// Image payload: varint entry count, then per entry a kind byte
/// (WriteTransaction::Op::Kind: kPut or kPutMeta), the key, and the value
/// (length-prefixed string for data, varint for meta): every data entry
/// in key order, then every meta entry.
std::string EncodeImage(const Store::DataMap& data,
                        const Store::MetaMap& meta) {
  BufferWriter writer;
  writer.Varint(data.size() + meta.size());
  for (const auto& [key, value] : data) {
    writer.Byte(static_cast<uint8_t>(Kind::kPut));
    writer.Str(key);
    writer.Str(value);
  }
  for (const auto& [name, value] : meta) {
    writer.Byte(static_cast<uint8_t>(Kind::kPutMeta));
    writer.Str(name);
    writer.Varint(value);
  }
  return writer.Take();
}

Status DecodeImage(std::string_view payload, Store::DataMap& data,
                   Store::MetaMap& meta) {
  BufferReader reader(payload);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  for (uint64_t i = 0; i < count; ++i) {
    VERSO_ASSIGN_OR_RETURN(uint8_t kind, reader.Byte());
    VERSO_ASSIGN_OR_RETURN(std::string key, reader.Str());
    switch (static_cast<Kind>(kind)) {
      case Kind::kPut: {
        VERSO_ASSIGN_OR_RETURN(std::string value, reader.Str());
        data[std::move(key)] = std::move(value);
        break;
      }
      case Kind::kPutMeta: {
        VERSO_ASSIGN_OR_RETURN(uint64_t value, reader.Varint());
        meta[std::move(key)] = value;
        break;
      }
      default:  // an image holds no deletes
        return Status::Corruption("store: unknown entry kind " +
                                  std::to_string(kind));
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("store: record has trailing bytes");
  }
  auto format = meta.find(kFormatMetaKey);
  if (format == meta.end()) {
    // Legal only for an empty store; a populated store always carries
    // the stamp (Commit adds it), so its absence means a damaged or
    // hand-edited meta table.
    if (meta.empty()) return Status::Ok();
    return Status::Corruption("store has meta entries but no format stamp");
  }
  if (format->second > kFormatVersion) {
    return Status::InvalidArgument(
        "store has format version " + std::to_string(format->second) +
        ", newer than this build's " + std::to_string(kFormatVersion));
  }
  return Status::Ok();
}

/// store.* handles into the global registry, bound once (registration
/// takes a mutex; store ops must not).
struct StoreMetrics {
  Counter& puts;
  Counter& deletes;
  Counter& scans;
  Counter& commits;
  Histogram& commit_us;

  static StoreMetrics& Get() {
    static StoreMetrics* metrics =
        new StoreMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }
  explicit StoreMetrics(MetricsRegistry& registry)
      : puts(registry.GetCounter("store.puts")),
        deletes(registry.GetCounter("store.deletes")),
        scans(registry.GetCounter("store.scans")),
        commits(registry.GetCounter("store.commits")),
        commit_us(registry.GetHistogram("store.commit_us")) {}
};

}  // namespace

void WriteTransaction::Put(std::string key, std::string value) {
  ops_.push_back({Op::Kind::kPut, std::move(key), std::move(value), 0});
}

void WriteTransaction::Delete(std::string key) {
  ops_.push_back({Op::Kind::kDelete, std::move(key), std::string(), 0});
}

void WriteTransaction::PutMeta(std::string name, uint64_t value) {
  ops_.push_back({Op::Kind::kPutMeta, std::move(name), std::string(), value});
}

Status WriteTransaction::Commit() {
  if (committed_) {
    return Status::InvalidArgument("write transaction already committed");
  }
  // Every committed batch carries the format stamp, so any non-empty
  // store names the format that wrote it.
  bool stamped = false;
  for (const Op& op : ops_) {
    if (op.kind == Op::Kind::kPutMeta && op.key == kFormatMetaKey) {
      stamped = true;
      break;
    }
  }
  if (!stamped) PutMeta(kFormatMetaKey, kFormatVersion);
  StoreMetrics& metrics = StoreMetrics::Get();
  ScopedTimer timer(MetricsRegistry::Global(), metrics.commit_us);
  VERSO_RETURN_IF_ERROR(store_->Apply(*this));
  committed_ = true;
  metrics.commits.Add();
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kPut:
        metrics.puts.Add();
        break;
      case Op::Kind::kDelete:
        metrics.deletes.Add();
        break;
      case Op::Kind::kPutMeta:
        break;
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<Store>> Store::Open(const std::string& dir, Env* env) {
  if (dir.empty()) {
    return Status::InvalidArgument("store directory must not be empty");
  }
  if (env == nullptr) env = Env::Default();
  VERSO_RETURN_IF_ERROR(env->EnsureDirectory(dir));
  std::unique_ptr<Store> store(new Store(dir + "/store.img", env));
  if (env->FileExists(store->path_)) {
    // The image is exactly one frame; WriteFileAtomic installed it, so
    // anything else — a torn frame, trailing bytes, several frames — is
    // damage, not a crash artifact, and must fail the open. That holds
    // for a power cut too: the image is synced before its rename, so the
    // name cannot reach disk ahead of the bytes, and a zero-filled tail
    // (a length that reached disk before its data) cannot be installed.
    VERSO_ASSIGN_OR_RETURN(WalReadResult image, ReadWal(store->path_, env));
    if (image.truncated_tail || image.records.size() != 1) {
      return Status::Corruption("store image '" + store->path_ +
                                "' is damaged");
    }
    VERSO_RETURN_IF_ERROR(
        DecodeImage(image.records[0], store->data_, store->meta_));
  }
  return store;
}

Status Store::Scan(std::string_view prefix, const ScanFn& fn) const {
  StoreMetrics::Get().scans.Add();
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    VERSO_RETURN_IF_ERROR(fn(it->first, it->second));
  }
  return Status::Ok();
}

Result<uint64_t> Store::GetMeta(std::string_view name) const {
  auto it = meta_.find(name);
  if (it == meta_.end()) {
    return Status::NotFound("no store meta entry for name");
  }
  return it->second;
}

Status Store::Apply(const WriteTransaction& txn) {
  // The ops go into the live maps in place, each data op remembering the
  // entry it replaced (meta holds a handful of entries and is copied);
  // a failed write puts them back in reverse order, so the maps (and the
  // old image, untouched by WriteFileAtomic) end exactly as they were.
  // No copy of the data map: a commit costs its ops plus the image encode.
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
  Result<std::string> frame = EncodeWalFrame(EncodeImage(data_, meta_));
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
