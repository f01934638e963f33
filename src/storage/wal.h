#ifndef VERSO_STORAGE_WAL_H_
#define VERSO_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/io.h"
#include "util/result.h"

namespace verso {

/// Append-only write-ahead log of opaque records (the database layers
/// fact-delta batches on top). Frame format:
///     u32 length_word | u32 CRC32(length_word) | u32 CRC32(payload) | payload
/// The length word spends its two high bits on one tag (payloads are far
/// below 1 GiB, so they are free): every frame sets both. The header CRC
/// covers the length word, so a bit-flip in the length never mis-frames
/// the rest of the log.
/// Recovery reads records until EOF or the first frame that is torn,
/// fails a CRC, or lacks the tag — a zero-filled tail included (CRC-32 of
/// zero bytes is zero, so only the tag tells zeros from a frame);
/// everything before it is returned, the tail is ignored — the standard
/// RocksDB-style contract for crashed writers.
class WalWriter {
 public:
  explicit WalWriter(std::string path, Env* env = nullptr)
      : path_(std::move(path)), env_(env != nullptr ? env : Env::Default()) {}

  Status Append(std::string_view payload);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Env* env_;
};

struct WalReadResult {
  /// The payloads of the valid frames, in log order.
  std::vector<std::string> records;
  /// True if a torn/corrupt tail was skipped (informational). NOTE: a
  /// corrupt record in the MIDDLE of the log is indistinguishable from a
  /// torn tail at that point, so every record after it — even bit-perfect
  /// ones — is intentionally dropped too: replaying deltas with a gap
  /// would fabricate a state no committed prefix ever had.
  bool truncated_tail = false;
  /// Byte length of the valid record prefix. When `truncated_tail` is
  /// set, recovery truncates the log to this length so later appends
  /// land after valid data instead of after the garbage tail (which
  /// would make them unreachable for every future recovery).
  size_t valid_bytes = 0;
};

/// Reads all valid records; a missing file yields zero records.
Result<WalReadResult> ReadWal(const std::string& path, Env* env = nullptr);

/// Encodes one frame — the exact byte image WalWriter::Append writes.
/// Exposed so the checkpoint store (src/store) frames its image
/// identically and reads it back with ReadWal: `store.img` is one such
/// frame installed by atomic rename. Fails for payloads at or past the
/// 1 GiB frame limit (the two high length bits are the tag).
Result<std::string> EncodeWalFrame(std::string_view payload);

}  // namespace verso

#endif  // VERSO_STORAGE_WAL_H_
