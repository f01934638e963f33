#include "storage/wal.h"

#include "util/crc32.h"

namespace verso {

namespace {

void AppendU32(std::string& out, uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xff);
  bytes[1] = static_cast<char>((v >> 8) & 0xff);
  bytes[2] = static_cast<char>((v >> 16) & 0xff);
  bytes[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(bytes, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

// Every frame sets both high bits of its length word. Frames without them
// — zero-filled tails, and the v1 and pre-batch frames of early builds —
// end the valid prefix.
constexpr uint32_t kTagBits = 0xC0000000u;
constexpr size_t kHeaderBytes = 12;

}  // namespace

Result<std::string> EncodeWalFrame(std::string_view payload) {
  if (payload.size() >= (1ull << 30)) {
    return Status::InvalidArgument("WAL payload exceeds 1 GiB frame limit");
  }
  std::string record;
  record.reserve(payload.size() + kHeaderBytes);
  AppendU32(record, static_cast<uint32_t>(payload.size()) | kTagBits);
  // Header CRC over the encoded length word: a bit-flip in the length is
  // caught deterministically instead of mis-framing everything after it.
  AppendU32(record, Crc32(record.data(), 4));
  AppendU32(record, Crc32(payload.data(), payload.size()));
  record.append(payload.data(), payload.size());
  return record;
}

Status WalWriter::Append(std::string_view payload) {
  VERSO_ASSIGN_OR_RETURN(std::string record, EncodeWalFrame(payload));
  return env_->AppendFile(path_, record);
}

Result<WalReadResult> ReadWal(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  WalReadResult result;
  if (!env->FileExists(path)) return result;
  VERSO_ASSIGN_OR_RETURN(std::string file, env->ReadFile(path));
  size_t pos = 0;
  while (file.size() - pos >= kHeaderBytes) {
    const char* header = file.data() + pos;
    uint32_t length_word = ReadU32(header);
    if ((length_word & kTagBits) != kTagBits) break;  // untagged: not a frame
    if (Crc32(header, 4) != ReadU32(header + 4)) break;  // damaged length
    uint32_t length = length_word & ~kTagBits;
    if (file.size() - pos - kHeaderBytes < length) break;  // torn final frame
    const char* payload = header + kHeaderBytes;
    if (Crc32(payload, length) != ReadU32(header + 8)) break;
    result.records.emplace_back(payload, length);
    pos += kHeaderBytes + length;
  }
  // Anything past the valid prefix — a broken frame, or trailing bytes
  // shorter than a header — is the torn tail.
  result.truncated_tail = pos != file.size();
  result.valid_bytes = pos;
  return result;
}

}  // namespace verso
