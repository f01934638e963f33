#include "store/store.h"

#include "obs/metrics.h"
#include "storage/codec.h"
#include "store/internal.h"
#include "store/mem_store.h"
#include "store/page_log_store.h"

namespace verso {

namespace store_internal {

std::string EncodeOps(const std::vector<WriteTransaction::Op>& ops) {
  BufferWriter writer;
  writer.Varint(ops.size());
  for (const WriteTransaction::Op& op : ops) {
    writer.Byte(static_cast<uint8_t>(op.kind));
    writer.Str(op.key);
    switch (op.kind) {
      case WriteTransaction::Op::Kind::kPut:
        writer.Str(op.value);
        break;
      case WriteTransaction::Op::Kind::kDelete:
        break;
      case WriteTransaction::Op::Kind::kPutMeta:
        writer.Varint(op.meta);
        break;
    }
  }
  return writer.Take();
}

std::string EncodeImage(const Store::DataMap& data,
                        const Store::MetaMap& meta) {
  BufferWriter writer;
  writer.Varint(data.size() + meta.size());
  for (const auto& [key, value] : data) {
    writer.Byte(static_cast<uint8_t>(WriteTransaction::Op::Kind::kPut));
    writer.Str(key);
    writer.Str(value);
  }
  for (const auto& [name, value] : meta) {
    writer.Byte(static_cast<uint8_t>(WriteTransaction::Op::Kind::kPutMeta));
    writer.Str(name);
    writer.Varint(value);
  }
  return writer.Take();
}

Status ApplyRecord(std::string_view payload, Store::DataMap& data,
                   Store::MetaMap& meta) {
  BufferReader reader(payload);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  for (uint64_t i = 0; i < count; ++i) {
    VERSO_ASSIGN_OR_RETURN(uint8_t kind, reader.Byte());
    VERSO_ASSIGN_OR_RETURN(std::string key, reader.Str());
    switch (static_cast<WriteTransaction::Op::Kind>(kind)) {
      case WriteTransaction::Op::Kind::kPut: {
        VERSO_ASSIGN_OR_RETURN(std::string value, reader.Str());
        data[std::move(key)] = std::move(value);
        break;
      }
      case WriteTransaction::Op::Kind::kDelete:
        data.erase(key);
        break;
      case WriteTransaction::Op::Kind::kPutMeta: {
        VERSO_ASSIGN_OR_RETURN(uint64_t value, reader.Varint());
        meta[std::move(key)] = value;
        break;
      }
      default:
        return Status::Corruption("store: unknown op kind " +
                                  std::to_string(kind));
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("store: record has trailing bytes");
  }
  return Status::Ok();
}

Status CheckFormat(const Store::MetaMap& meta, const char* backend) {
  auto it = meta.find(kFormatMetaKey);
  if (it == meta.end()) {
    // Legal only for an empty store; a populated store always carries
    // the stamp (Commit adds it), so its absence means a damaged or
    // hand-edited meta table.
    if (meta.empty()) return Status::Ok();
    return Status::Corruption(std::string(backend) +
                              " store has meta entries but no format stamp");
  }
  if (it->second > kFormatVersion) {
    return Status::InvalidArgument(
        std::string(backend) + " store has format version " +
        std::to_string(it->second) + ", newer than this build's " +
        std::to_string(kFormatVersion));
  }
  return Status::Ok();
}

Metrics& Metrics::Get() {
  static Metrics* metrics =
      new Metrics(MetricsRegistry::Global());  // never dies
  return *metrics;
}

Metrics::Metrics(MetricsRegistry& registry)
    : puts(registry.GetCounter("store.puts")),
      deletes(registry.GetCounter("store.deletes")),
      scans(registry.GetCounter("store.scans")),
      commits(registry.GetCounter("store.commits")),
      compactions(registry.GetCounter("store.compactions")),
      commit_us(registry.GetHistogram("store.commit_us")) {}

}  // namespace store_internal

const char* StoreBackendName(StoreBackend backend) {
  switch (backend) {
    case StoreBackend::kMem:
      return "mem";
    case StoreBackend::kPageLog:
      return "pagelog";
  }
  return "unknown";
}

Result<StoreBackend> ParseStoreBackend(std::string_view name) {
  if (name == "mem") return StoreBackend::kMem;
  if (name == "pagelog") return StoreBackend::kPageLog;
  return Status::InvalidArgument("unknown store backend '" +
                                 std::string(name) +
                                 "' (expected mem or pagelog)");
}

void WriteTransaction::Put(std::string key, std::string value) {
  ops_.push_back({Op::Kind::kPut, std::move(key), std::move(value), 0});
}

void WriteTransaction::Delete(std::string key) {
  ops_.push_back({Op::Kind::kDelete, std::move(key), std::string(), 0});
}

void WriteTransaction::PutMeta(std::string name, uint64_t value) {
  ops_.push_back({Op::Kind::kPutMeta, std::move(name), std::string(), value});
}

Status Store::Scan(std::string_view prefix, const ScanFn& fn) const {
  store_internal::Metrics::Get().scans.Add();
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

void Store::ApplyOps(const WriteTransaction& txn, DataMap& data,
                     MetaMap& meta) {
  for (const WriteTransaction::Op& op : txn.ops()) {
    switch (op.kind) {
      case WriteTransaction::Op::Kind::kPut:
        data[op.key] = op.value;
        break;
      case WriteTransaction::Op::Kind::kDelete:
        data.erase(op.key);
        break;
      case WriteTransaction::Op::Kind::kPutMeta:
        meta[op.key] = op.meta;
        break;
    }
  }
}

Status WriteTransaction::Commit() {
  if (committed_) {
    return Status::InvalidArgument("write transaction already committed");
  }
  // Every committed batch carries the format stamp, so any non-empty
  // store names the format that wrote it.
  bool stamped = false;
  for (const Op& op : ops_) {
    if (op.kind == Op::Kind::kPutMeta &&
        op.key == store_internal::kFormatMetaKey) {
      stamped = true;
      break;
    }
  }
  if (!stamped) {
    PutMeta(store_internal::kFormatMetaKey, store_internal::kFormatVersion);
  }
  store_internal::Metrics& metrics = store_internal::Metrics::Get();
  ScopedTimer timer(MetricsRegistry::Global(), metrics.commit_us);
  VERSO_RETURN_IF_ERROR(store_->ApplyCommit(*this));
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

Result<std::unique_ptr<Store>> OpenStore(StoreBackend backend,
                                         const std::string& dir, Env* env) {
  if (dir.empty()) {
    return Status::InvalidArgument("store directory must not be empty");
  }
  if (env == nullptr) env = Env::Default();
  VERSO_RETURN_IF_ERROR(env->EnsureDirectory(dir));
  switch (backend) {
    case StoreBackend::kMem: {
      VERSO_ASSIGN_OR_RETURN(std::unique_ptr<MemStore> store,
                             MemStore::Open(dir, env));
      return std::unique_ptr<Store>(std::move(store));
    }
    case StoreBackend::kPageLog: {
      VERSO_ASSIGN_OR_RETURN(std::unique_ptr<PageLogStore> store,
                             PageLogStore::Open(dir, env));
      return std::unique_ptr<Store>(std::move(store));
    }
  }
  return Status::InvalidArgument("unknown store backend");
}

}  // namespace verso
