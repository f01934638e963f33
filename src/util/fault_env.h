#ifndef VERSO_UTIL_FAULT_ENV_H_
#define VERSO_UTIL_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "util/io.h"

namespace verso {

/// Deterministic in-memory Env with scripted fault injection — the
/// crash-correctness oracle behind tests/storage/crash_torture_test.cc
/// (the RocksDB FaultInjectionTestEnv pattern).
///
/// The environment counts every MUTATING operation (WriteFile, AppendFile,
/// RenameFile, RemoveFile, TruncateFile, EnsureDirectory, SyncFile,
/// SyncDir) and can be armed to fail the Nth one:
///
///   - kEio / kEnospc   the operation fails with a permanent kIoError
///                      after applying `partial_bytes` of its payload (a
///                      short write followed by an error — the nastiest
///                      append failure); the env keeps working afterwards.
///   - kTransient       same, but the error is kIoTransient — the storage
///                      layer's retry-with-backoff policy applies.
///   - kCrash           the process "dies" mid-operation: `partial_bytes`
///                      of the payload land (unsynced tail dropped), the
///                      operation and EVERY later one fail with kIoError,
///                      and crashed() turns true. CloneSurvivingFiles()
///                      then yields the post-crash disk image a rebooted
///                      process would recover from.
///
/// For non-data operations (rename/remove/truncate/mkdir) `partial_bytes`
/// selects all-or-nothing: 0 means the operation did not happen, anything
/// else means it completed before the fault hit.
///
/// Every completed operation survives a crash, so a sync changes no file
/// here: SyncFile/SyncDir are fault points only (a failed or crashed
/// sync), and what a power cut drops for want of a sync is not modelled.
///
/// Reads are never failed by the plan (a read failure cannot affect
/// durability), but after a kCrash every operation, reads included, fails:
/// the process is conceptually dead.
class FaultInjectingEnv : public Env {
 public:
  enum class FaultKind : uint8_t { kEio, kEnospc, kTransient, kCrash };

  /// Which mutating operations count toward `fail_at`.
  enum class OpFilter : uint8_t {
    kAnyMutating,
    kWrite,
    kAppend,
    kRename,
    kRemove,
    kTruncate,
    kSync,  // SyncFile and SyncDir
  };

  static constexpr uint64_t kNever = ~0ull;

  struct FaultPlan {
    /// 0-based index among operations matching `filter`; kNever disarms.
    uint64_t fail_at = kNever;
    /// Consecutive matching operations to fail from `fail_at` on (a flaky
    /// device that stays flaky across retries). kCrash ignores this —
    /// after a crash everything fails anyway.
    uint32_t repeat = 1;
    FaultKind kind = FaultKind::kEio;
    /// Payload bytes applied before the fault (data ops), or the
    /// did-it-happen toggle for non-data ops.
    size_t partial_bytes = 0;
    OpFilter filter = OpFilter::kAnyMutating;
  };

  FaultInjectingEnv() = default;

  /// Arms (or re-arms) the fault plan. For kAnyMutating plans `fail_at`
  /// is an ABSOLUTE op index (use mutating_ops() to aim relative to work
  /// already done — the torture driver's counting-run pattern); for
  /// filtered plans it counts matching ops from this call on ("fail the
  /// first append from now").
  void SetPlan(const FaultPlan& plan) {
    plan_ = plan;
    faults_hit_ = 0;
    matching_ops_ = 0;
  }
  void Disarm() { plan_.fail_at = kNever; }

  /// Mutating operations seen so far (the injection-point space a torture
  /// driver sweeps after a fault-free counting run).
  uint64_t mutating_ops() const { return mutating_ops_; }
  /// True once a kCrash fault fired; every later operation fails.
  bool crashed() const { return crashed_; }
  /// Faults injected so far under the current plan.
  uint32_t faults_hit() const { return faults_hit_; }

  /// The surviving "disk" after a crash (or at any quiescent point): a
  /// fresh, fault-free env holding a copy of the current file contents —
  /// what a rebooted process would see.
  std::unique_ptr<FaultInjectingEnv> CloneSurvivingFiles() const;

  /// Direct file-image access, for byte-prefix sweeps.
  const std::map<std::string, std::string>& files() const { return files_; }
  void SetFileContents(const std::string& path, std::string contents) {
    files_[path] = std::move(contents);
  }

  // -- Env -------------------------------------------------------------
  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path, std::string_view contents) override;
  Status AppendFile(const std::string& path,
                    std::string_view contents) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  bool FileExists(const std::string& path) override;
  Result<size_t> FileSize(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, size_t size) override;
  Status EnsureDirectory(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;

 private:
  /// Bumps the op counters; returns the fault to inject into this
  /// operation, or OK. Sets crashed_ for kCrash plans. `fired` is true
  /// only when the fault fires on this very operation (partial payloads
  /// apply), not when the env died earlier.
  Status NextFault(OpFilter op, bool& fired);

  FaultPlan plan_;
  uint64_t mutating_ops_ = 0;
  uint64_t matching_ops_ = 0;
  uint32_t faults_hit_ = 0;
  bool crashed_ = false;
  std::map<std::string, std::string> files_;
  std::set<std::string> dirs_;
};

}  // namespace verso

#endif  // VERSO_UTIL_FAULT_ENV_H_
