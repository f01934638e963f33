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
/// (storage/wal.h), which the checkpoint store reuses.
///
/// Decoding has one parser of fact images, ScanFact, which checks an
/// image's bytes without interning anything; FactDecoder then resolves
/// the parts to handles. Recovery uses the split to decode less than it
/// reads: a stored record is checked against its key and built into its
/// version's state in one piece (DecodeVersionRecordInto), and a WAL
/// suffix is scanned whole and each distinct fact image decoded once
/// (ReplayDeltaBatches). DecodeFact and DecodeDeltaBatch decode every
/// image they read; the tests diff recovery against them.

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

  Result<uint8_t> Byte() {
    uint8_t v = 0;
    if (!ReadByte(v)) return Failure();
    return v;
  }
  Result<uint64_t> Varint() {
    uint64_t v = 0;
    if (!ReadVarint(v)) return Failure();
    return v;
  }
  Result<int64_t> ZigZag() {
    int64_t v = 0;
    if (!ReadZigZag(v)) return Failure();
    return v;
  }
  Result<std::string> Str() {
    std::string_view v;
    if (!ReadView(v)) return Failure();
    return std::string(v);
  }

  // The same reads for hot loops (the fact scanner reads every logged
  // byte through them): each returns false on failure and keeps the
  // reason for Failure(), so a scan builds a Status only when it fails.
  bool ReadByte(uint8_t& out) {
    if (pos_ >= data_.size()) return Fail("codec: truncated buffer");
    out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadVarint(uint64_t& out) {
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = 0;
      if (!ReadByte(byte)) return false;
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return Fail("codec: varint too long");
  }
  bool ReadZigZag(int64_t& out) {
    uint64_t raw = 0;
    if (!ReadVarint(raw)) return false;
    out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }
  /// A length-prefixed string, as a view into the buffer.
  bool ReadView(std::string_view& out) {
    uint64_t length = 0;
    if (!ReadVarint(length)) return false;
    if (length > remaining()) return Fail("codec: string overruns buffer");
    out = std::string_view(data_.data() + pos_, length);
    pos_ += length;
    return true;
  }
  /// Records why a read failed; returns false.
  bool Fail(std::string reason) {
    error_ = std::move(reason);
    return false;
  }
  /// The Corruption status of the last failed read.
  Status Failure() const { return Status::Corruption(error_); }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  /// The bytes read since `start` (an earlier position()).
  std::string_view Since(size_t start) const {
    return std::string_view(data_.data() + start, pos_ - start);
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;
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
/// Decodes one EncodeFact image: ScanFact, then FactDecoder::Decode.
Result<DecodedFact> DecodeFact(BufferReader& reader, SymbolTable& symbols,
                               VersionTable& versions);

/// One EncodeFact image split into its parts, nothing interned. The views
/// point into the scanned buffer.
struct FactImage {
  std::string_view bytes;    // the whole image
  std::string_view version;  // depth, functors, root: the version key
  std::string_view method;   // the method name
  std::string_view values;   // argument count, arguments, result
};

/// The one parser of fact images: reads the next EncodeFact image and
/// checks everything the bytes alone can tell (varints, lengths, functor
/// codes, value tags, denominators), but interns nothing. Every decoder
/// of facts — DecodeFact, the store load, the WAL replay — builds on it,
/// so a corrupt image fails the same way on every path.
Result<FactImage> ScanFact(BufferReader& reader);

/// Resolves scanned fact images to engine handles, interning as it goes.
/// It remembers the last version image it resolved and the first method
/// names it met, so a run of facts of one version resolves that version
/// once and a method name seen before costs a compare, not a hash. The
/// memos hold views into the scanned buffers, which must outlive the
/// decoder.
class FactDecoder {
 public:
  FactDecoder(SymbolTable& symbols, VersionTable& versions)
      : symbols_(symbols), versions_(versions) {}

  /// The Vid a version image (FactImage::version) names.
  Result<Vid> Version(std::string_view image);
  MethodId Method(std::string_view name);
  /// The application of a fact, its version and method aside.
  Result<GroundApp> App(const FactImage& image);
  Result<DecodedFact> Decode(const FactImage& image);

  SymbolTable& symbols() { return symbols_; }
  VersionTable& versions() { return versions_; }

 private:
  /// Method names memoised; a base carries a handful of methods, and past
  /// this many the interner answers the rest.
  static constexpr size_t kMethodMemo = 16;

  SymbolTable& symbols_;
  VersionTable& versions_;
  std::string_view last_version_;
  Vid last_vid_;
  std::vector<std::pair<std::string_view, MethodId>> methods_;
};

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
/// The version a stored key names. Corruption unless `key` is exactly
/// EncodeVersionKey of that version: a checkpoint puts and deletes by the
/// canonical key, so a record under any other spelling of it would never
/// be rewritten or deleted and its facts would return on every reopen.
Result<Vid> DecodeVersionKey(std::string_view key, FactDecoder& decoder);
/// Decodes one stored version — `key` its EncodeVersionKey image (the
/// store key without its "b/" prefix), `data` its EncodeVersionRecord
/// image — builds that version's state from the record's facts and
/// installs it in `base` with one AdoptVersion, replacing whatever `base`
/// held for the version. Corruption unless DecodeVersionKey accepts the
/// key and every fact of the record leads with the key's bytes: then the
/// facts' versions need no decoding. Returns the number of fact images
/// decoded. One decoder serves a whole store scan, so its method memo
/// spans the records.
Result<size_t> DecodeVersionRecordInto(std::string_view key,
                                       std::string_view data,
                                       FactDecoder& decoder, ObjectBase& base);

/// Difference between two object bases. Only an import diffs on the
/// commit path (a commit's delta comes out of its build of ob'); the tests
/// diff the commit path and recovery against ComputeDelta, ApplyDelta and
/// DecodeDeltaBatch.
struct FactDelta {
  std::vector<DecodedFact> added;
  std::vector<DecodedFact> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

FactDelta ComputeDelta(const ObjectBase& before, const ObjectBase& after);
void ApplyDelta(const FactDelta& delta, ObjectBase& base);

/// WAL record payload: the deltas of a batch of transactions, in commit
/// order — one for Execute, a whole group for ExecuteBatch — framed as one
/// WAL record, each a RunOutcome::committed_delta (removals, then
/// additions). Format: varint transaction count, then per transaction a
/// varint count and the EncodeFact images of its added facts, then the
/// same for its removed facts.
std::string EncodeDeltaBatch(const std::vector<const DeltaLog*>& deltas,
                             const SymbolTable& symbols,
                             const VersionTable& versions);
/// Decodes every fact of a batch payload. With ApplyDelta per
/// transaction, this is the fact-by-fact replay ReplayDeltaBatches must
/// equal; the tests diff the two.
Result<std::vector<FactDelta>> DecodeDeltaBatch(std::string_view data,
                                                SymbolTable& symbols,
                                                VersionTable& versions);

/// Replays a WAL suffix — EncodeDeltaBatch payloads in log order — onto
/// `base` as one net delta. Deltas have set semantics, so the last
/// operation on a fact decides whether it is present: the payloads are
/// scanned (ScanFact) for each distinct fact image's last operation, in
/// application order (per transaction, removals before additions, as
/// ApplyDelta installs them), then each distinct image is decoded once
/// and its last operation applied, in last-occurrence order. That order
/// makes the result equal fact-by-fact replay even where one fact is
/// spelled by two images (a padded varint, the number 2/2): the image
/// applied last carries the fact's last operation. Every distinct image
/// is decoded, so every image a fact-by-fact replay would reject fails
/// this too. On error `base` is unchanged. Returns the number of
/// distinct fact images decoded.
Result<size_t> ReplayDeltaBatches(const std::vector<std::string>& payloads,
                                  SymbolTable& symbols,
                                  VersionTable& versions, ObjectBase& base);

/// The commit-stream view of a delta: removals first, then additions —
/// exactly the order ApplyDelta installs them, so observers replaying the
/// log fact-by-fact reconstruct the same intermediate states.
DeltaLog ToDeltaLog(const FactDelta& delta);

}  // namespace verso

#endif  // VERSO_STORAGE_CODEC_H_
