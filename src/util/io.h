#ifndef VERSO_UTIL_IO_H_
#define VERSO_UTIL_IO_H_

#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace verso {

/// Virtual filesystem seam. Every byte the storage layer persists goes
/// through an Env, so tests can substitute a deterministic fault-injecting
/// backend (util/fault_env.h) and prove crash-recovery properties without
/// a real disk. PosixEnv is the production backend; Env::Default() returns
/// a process-wide PosixEnv.
///
/// Durability: AppendFile/WriteFile flush to the OS before returning, so
/// a process crash loses only an in-flight operation (a short write), and
/// the torture harness crashes both between and inside operations. A
/// power cut can also lose flushed bytes that no sync covered: SyncFile
/// makes one file's data durable and SyncDir its directory's entries
/// (creates, renames, removes). The checkpoint store installs its image
/// with WriteFileAtomic, which syncs, before the WAL it folds is removed;
/// WAL appends are not synced.
class Env {
 public:
  virtual ~Env() = default;

  /// Reads a whole file into a string.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Writes `contents` to `path`, truncating. Not atomic; see
  /// WriteFileAtomic for durability-sensitive call sites.
  virtual Status WriteFile(const std::string& path,
                           std::string_view contents) = 0;

  /// Appends `contents` to `path` and flushes. Creates the file if missing.
  virtual Status AppendFile(const std::string& path,
                            std::string_view contents) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// True if the file exists.
  virtual bool FileExists(const std::string& path) = 0;

  /// Size of the file in bytes.
  virtual Result<size_t> FileSize(const std::string& path) = 0;

  /// Removes the file if it exists; missing files are not an error.
  virtual Status RemoveFile(const std::string& path) = 0;

  /// Shrinks the file to `size` bytes (recovery chops torn log tails so
  /// later appends land after valid data, not after garbage).
  virtual Status TruncateFile(const std::string& path, size_t size) = 0;

  /// Creates the directory (and parents) if missing.
  virtual Status EnsureDirectory(const std::string& path) = 0;

  /// Flushes the file's data to stable storage (fdatasync).
  virtual Status SyncFile(const std::string& path) = 0;

  /// Makes the directory's entries durable (fsync on the directory).
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Writes to a temp sibling, syncs it, renames it over `path` and syncs
  /// the directory, so readers observe either the old or the new
  /// contents, never a torn file, and the new name never reaches disk
  /// ahead of its data. Built on the primitives above, so fault injection
  /// sees every step separately. On failure the temp sibling is removed
  /// (best-effort), so a short write does not hold the space the next
  /// attempt needs.
  Status WriteFileAtomic(const std::string& path, std::string_view contents);

  /// The process-wide real-filesystem backend.
  static Env* Default();
};

/// The real filesystem.
class PosixEnv : public Env {
 public:
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
};

/// The directory holding `path` ("." when it names no directory).
std::string DirName(const std::string& path);

// Convenience wrappers over Env::Default() for call sites that do not
// need the seam (tools, tests, one-shot loads).
Result<std::string> ReadFile(const std::string& path);
Status WriteFile(const std::string& path, std::string_view contents);
Status WriteFileAtomic(const std::string& path, std::string_view contents);
Status AppendFile(const std::string& path, std::string_view contents);
bool FileExists(const std::string& path);
Result<size_t> FileSize(const std::string& path);
Status RemoveFile(const std::string& path);
Status TruncateFile(const std::string& path, size_t size);
Status EnsureDirectory(const std::string& path);

}  // namespace verso

#endif  // VERSO_UTIL_IO_H_
