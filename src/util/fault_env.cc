#include "util/fault_env.h"

#include <algorithm>

namespace verso {

namespace {

Status DeadEnv() {
  return Status::IoError("simulated crash: environment is down");
}

Status FaultStatus(FaultInjectingEnv::FaultKind kind) {
  switch (kind) {
    case FaultInjectingEnv::FaultKind::kEio:
      return Status::IoError("injected EIO");
    case FaultInjectingEnv::FaultKind::kEnospc:
      return Status::IoError("injected ENOSPC: no space left on device");
    case FaultInjectingEnv::FaultKind::kTransient:
      return Status::IoTransient("injected transient I/O failure");
    case FaultInjectingEnv::FaultKind::kCrash:
      return Status::IoError("simulated crash");
  }
  return Status::Internal("unreachable fault kind");
}

}  // namespace

// `fired` distinguishes "the fault fires on THIS operation" (partial
// payload applies) from "the env crashed earlier" (nothing is touched).
Status FaultInjectingEnv::NextFault(OpFilter op, bool& fired) {
  fired = false;
  if (crashed_) return DeadEnv();
  uint64_t any_index = mutating_ops_++;
  uint64_t idx = any_index;
  if (plan_.filter != OpFilter::kAnyMutating) {
    if (plan_.filter != op) return Status::Ok();
    idx = matching_ops_++;
  }
  if (plan_.fail_at == kNever || idx < plan_.fail_at) return Status::Ok();
  if (plan_.kind != FaultKind::kCrash &&
      idx >= plan_.fail_at + plan_.repeat) {
    return Status::Ok();
  }
  ++faults_hit_;
  fired = true;
  if (plan_.kind == FaultKind::kCrash) crashed_ = true;
  return FaultStatus(plan_.kind);
}

std::unique_ptr<FaultInjectingEnv> FaultInjectingEnv::CloneSurvivingFiles()
    const {
  auto clone = std::make_unique<FaultInjectingEnv>();
  clone->files_ = files_;
  clone->dirs_ = dirs_;
  return clone;
}

Result<std::string> FaultInjectingEnv::ReadFile(const std::string& path) {
  if (crashed_) return DeadEnv();
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  return it->second;
}

Status FaultInjectingEnv::WriteFile(const std::string& path,
                                    std::string_view contents) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kWrite, fired);
  if (!fault.ok()) {
    if (fired) {
      // Short write: the truncate already happened, only the partial
      // prefix of the new contents made it down.
      size_t n = std::min(plan_.partial_bytes, contents.size());
      files_[path] = std::string(contents.substr(0, n));
    }
    return fault;
  }
  files_[path] = std::string(contents);
  return Status::Ok();
}

Status FaultInjectingEnv::AppendFile(const std::string& path,
                                     std::string_view contents) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kAppend, fired);
  if (!fault.ok()) {
    if (fired) {
      size_t n = std::min(plan_.partial_bytes, contents.size());
      files_[path] += std::string(contents.substr(0, n));
    }
    return fault;
  }
  files_[path] += std::string(contents);
  return Status::Ok();
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kRename, fired);
  bool apply = fault.ok() || (fired && plan_.partial_bytes > 0);
  if (apply) {
    auto it = files_.find(from);
    if (it == files_.end()) {
      return fault.ok()
                 ? Status::IoError("rename '" + from + "': no such file")
                 : fault;
    }
    files_[to] = std::move(it->second);
    files_.erase(it);
  }
  return fault;
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Result<size_t> FaultInjectingEnv::FileSize(const std::string& path) {
  if (crashed_) return DeadEnv();
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::IoError("size of '" + path + "': no such file");
  }
  return it->second.size();
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kRemove, fired);
  bool apply = fault.ok() || (fired && plan_.partial_bytes > 0);
  if (apply) files_.erase(path);
  return fault;
}

Status FaultInjectingEnv::TruncateFile(const std::string& path, size_t size) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kTruncate, fired);
  bool apply = fault.ok() || (fired && plan_.partial_bytes > 0);
  if (apply) {
    auto it = files_.find(path);
    if (it == files_.end()) {
      return fault.ok()
                 ? Status::IoError("truncate '" + path + "': no such file")
                 : fault;
    }
    it->second.resize(size, '\0');
  }
  return fault;
}

Status FaultInjectingEnv::EnsureDirectory(const std::string& path) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kAnyMutating, fired);
  if (fault.ok()) dirs_.insert(path);
  return fault;
}

Status FaultInjectingEnv::SyncFile(const std::string& path) {
  bool fired = false;
  Status fault = NextFault(OpFilter::kSync, fired);
  if (!fault.ok()) return fault;
  if (files_.count(path) == 0) {
    return Status::IoError("fdatasync '" + path + "': no such file");
  }
  return Status::Ok();
}

Status FaultInjectingEnv::SyncDir(const std::string&) {
  // Directories are implicit here (files need no EnsureDirectory), so
  // any directory can be synced.
  bool fired = false;
  return NextFault(OpFilter::kSync, fired);
}

}  // namespace verso
