#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace verso {

namespace fs = std::filesystem;

namespace {

/// Opens `path` with `flags`, runs `sync` on the descriptor and closes it.
Status SyncPath(const std::string& path, int flags, int (*sync)(int),
                const char* what) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(std::string(what) + " '" + path +
                           "': " + std::strerror(errno));
  }
  const int rc = sync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError(std::string(what) + " '" + path +
                           "': " + std::strerror(err));
  }
  return Status::Ok();
}

}  // namespace

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

Status Env::WriteFileAtomic(const std::string& path,
                            std::string_view contents) {
  std::string tmp = path + ".tmp";
  Status status = WriteFile(tmp, contents);
  // The data first: a rename that reached disk ahead of it could install
  // a name over unwritten (zero-filled) blocks after a power cut.
  if (status.ok()) status = SyncFile(tmp);
  if (status.ok()) status = RenameFile(tmp, path);
  if (!status.ok()) {
    // Best-effort cleanup; the write, sync or rename error is what the
    // caller acts on.
    RemoveFile(tmp);
    return status;
  }
  return SyncDir(DirName(path));
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

Result<std::string> PosixEnv::ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open '" + path + "' for reading");
  // One string sized from the file as it stands at open, filled by
  // read(); a file that shrank meanwhile ends where read() stops.
  std::string contents;
  struct stat st;
  bool failed = ::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode);
  if (!failed) contents.resize(static_cast<size_t>(st.st_size));
  size_t filled = 0;
  while (!failed && filled < contents.size()) {
    const ssize_t n =
        ::read(fd, contents.data() + filled, contents.size() - filled);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      failed = n < 0;
      break;
    }
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  if (failed) return Status::IoError("read failure on '" + path + "'");
  contents.resize(filled);
  return contents;
}

Status PosixEnv::WriteFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::Ok();
}

Status PosixEnv::AppendFile(const std::string& path,
                            std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IoError("cannot open '" + path + "' for append");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) return Status::IoError("append failure on '" + path + "'");
  return Status::Ok();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IoError("rename '" + from + "' -> '" + to +
                           "': " + ec.message());
  }
  return Status::Ok();
}

bool PosixEnv::FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Result<size_t> PosixEnv::FileSize(const std::string& path) {
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  if (ec) return Status::IoError("size of '" + path + "': " + ec.message());
  return static_cast<size_t>(size);
}

Status PosixEnv::RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IoError("remove '" + path + "': " + ec.message());
  return Status::Ok();
}

Status PosixEnv::TruncateFile(const std::string& path, size_t size) {
  std::error_code ec;
  fs::resize_file(path, size, ec);
  if (ec) return Status::IoError("truncate '" + path + "': " + ec.message());
  return Status::Ok();
}

Status PosixEnv::EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IoError("mkdir '" + path + "': " + ec.message());
  return Status::Ok();
}

Status PosixEnv::SyncFile(const std::string& path) {
  return SyncPath(path, O_RDONLY, ::fdatasync, "fdatasync");
}

Status PosixEnv::SyncDir(const std::string& dir) {
  return SyncPath(dir, O_RDONLY | O_DIRECTORY, ::fsync, "fsync");
}

Result<std::string> ReadFile(const std::string& path) {
  return Env::Default()->ReadFile(path);
}

Status WriteFile(const std::string& path, std::string_view contents) {
  return Env::Default()->WriteFile(path, contents);
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  return Env::Default()->WriteFileAtomic(path, contents);
}

Status AppendFile(const std::string& path, std::string_view contents) {
  return Env::Default()->AppendFile(path, contents);
}

bool FileExists(const std::string& path) {
  return Env::Default()->FileExists(path);
}

Result<size_t> FileSize(const std::string& path) {
  return Env::Default()->FileSize(path);
}

Status RemoveFile(const std::string& path) {
  return Env::Default()->RemoveFile(path);
}

Status TruncateFile(const std::string& path, size_t size) {
  return Env::Default()->TruncateFile(path, size);
}

Status EnsureDirectory(const std::string& path) {
  return Env::Default()->EnsureDirectory(path);
}

}  // namespace verso
