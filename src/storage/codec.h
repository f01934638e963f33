#ifndef VERSO_STORAGE_CODEC_H_
#define VERSO_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/object_base.h"
#include "core/symbol_table.h"
#include "core/version_table.h"
#include "util/result.h"

namespace verso {

/// Binary encoding of facts, per-version store records, and fact deltas.
/// OID/VID handles are engine-local, so everything is serialized
/// *symbolically* (names and exact numerics) and re-interned on decode; a
/// stored base can be loaded into any engine.
///
/// Primitives: unsigned LEB128 varints, zigzag for signed, length-prefixed
/// strings. Integrity (CRC, framing) is layered on top by the WAL frame
/// (storage/wal.h), which the store backends reuse.

class BufferWriter {
 public:
  void Byte(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Varint(uint64_t v);
  void ZigZag(int64_t v);
  void Str(std::string_view s);

  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  Result<uint8_t> Byte();
  Result<uint64_t> Varint();
  Result<int64_t> ZigZag();
  Result<std::string> Str();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// A fact decoded into engine handles.
struct DecodedFact {
  Vid vid;
  MethodId method;
  GroundApp app;
};

void EncodeFact(BufferWriter& writer, Vid vid, MethodId method,
                const GroundApp& app, const SymbolTable& symbols,
                const VersionTable& versions);
Result<DecodedFact> DecodeFact(BufferReader& reader, SymbolTable& symbols,
                               VersionTable& versions);

/// Per-version images for the checkpoint store (src/store): the base is
/// stored one version per key so recovery is a single range scan and a
/// checkpoint can delete exactly the versions that disappeared.
///
/// The key is the symbolic version image EncodeFact leads with — varint
/// functor-chain depth, update ops outermost-first, then the root OID —
/// so keys are deterministic across engines and equal keys mean the same
/// version identity the WAL codec uses.
std::string EncodeVersionKey(Vid vid, const SymbolTable& symbols,
                             const VersionTable& versions);
/// One version's whole state as a store value: varint fact count, then
/// that version's facts as EncodeFact images.
std::string EncodeVersionRecord(Vid vid, const VersionState& state,
                                const SymbolTable& symbols,
                                const VersionTable& versions);
/// Decodes one EncodeVersionRecord image, inserting its facts into `base`.
Status DecodeVersionRecordInto(std::string_view data, SymbolTable& symbols,
                               VersionTable& versions, ObjectBase& base);

/// Difference between two object bases; the WAL logs one delta per
/// committed update-program.
struct FactDelta {
  std::vector<DecodedFact> added;
  std::vector<DecodedFact> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

FactDelta ComputeDelta(const ObjectBase& before, const ObjectBase& after);
void ApplyDelta(const FactDelta& delta, ObjectBase& base);

/// WAL record payload: the deltas of a batch of transactions, in commit
/// order — one for Execute, a whole group for ExecuteBatch — framed as one
/// WAL record. Format: varint transaction count, then per transaction a
/// varint count and the EncodeFact images of its added facts, then the
/// same for its removed facts.
std::string EncodeDeltaBatch(const std::vector<FactDelta>& deltas,
                             const SymbolTable& symbols,
                             const VersionTable& versions);
/// Single-transaction batch (the common Execute path), copy-free.
std::string EncodeDeltaBatch(const FactDelta& delta,
                             const SymbolTable& symbols,
                             const VersionTable& versions);
Result<std::vector<FactDelta>> DecodeDeltaBatch(std::string_view data,
                                                SymbolTable& symbols,
                                                VersionTable& versions);

/// The commit-stream view of a delta: removals first, then additions —
/// exactly the order ApplyDelta installs them, so observers replaying the
/// log fact-by-fact reconstruct the same intermediate states.
DeltaLog ToDeltaLog(const FactDelta& delta);

}  // namespace verso

#endif  // VERSO_STORAGE_CODEC_H_
