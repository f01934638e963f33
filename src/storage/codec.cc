#include "storage/codec.h"

#include <algorithm>
#include <functional>

#include "util/numeric.h"

namespace verso {

namespace {

// Value tags.
constexpr uint8_t kTagSymbol = 0;
constexpr uint8_t kTagNumber = 1;
constexpr uint8_t kTagString = 2;

void EncodeOid(BufferWriter& writer, Oid oid, const SymbolTable& symbols) {
  switch (symbols.kind(oid)) {
    case OidKind::kSymbol:
      writer.Byte(kTagSymbol);
      writer.Str(symbols.SymbolName(oid));
      break;
    case OidKind::kNumber: {
      writer.Byte(kTagNumber);
      const Numeric& n = symbols.NumberValue(oid);
      writer.ZigZag(n.numerator());
      writer.Varint(static_cast<uint64_t>(n.denominator()));
      break;
    }
    case OidKind::kString:
      writer.Byte(kTagString);
      writer.Str(symbols.StringValue(oid));
      break;
  }
}

/// One value (OID) image, read but not interned.
struct ValueImage {
  uint8_t tag = 0;
  std::string_view text;  // symbol name or string value
  int64_t num = 0;        // number: numerator and (positive) denominator
  int64_t den = 1;
};

/// Reads one value image, checking its tag and, for a number, its
/// denominator; interns nothing.
bool ReadValue(BufferReader& reader, ValueImage& value) {
  if (!reader.ReadByte(value.tag)) return false;
  switch (value.tag) {
    case kTagSymbol:
    case kTagString:
      return reader.ReadView(value.text);
    case kTagNumber: {
      uint64_t den = 0;
      if (!reader.ReadZigZag(value.num) || !reader.ReadVarint(den)) {
        return false;
      }
      if (den == 0 || den > static_cast<uint64_t>(INT64_MAX)) {
        return reader.Fail("codec: invalid denominator");
      }
      value.den = static_cast<int64_t>(den);
      return true;
    }
    default:
      return reader.Fail("codec: unknown value tag " +
                         std::to_string(value.tag));
  }
}

Result<Oid> InternValue(const ValueImage& value, SymbolTable& symbols) {
  switch (value.tag) {
    case kTagSymbol:
      return symbols.Symbol(value.text);
    case kTagString:
      return symbols.String(value.text);
    default: {  // kTagNumber, the only other tag ReadValue admits
      // Integers (what writers emit for den 1) need no gcd.
      if (value.den == 1) return symbols.Int(value.num);
      VERSO_ASSIGN_OR_RETURN(Numeric number,
                             Numeric::FromRatio(value.num, value.den));
      return symbols.Number(number);
    }
  }
}

/// A version image read but not interned.
struct VersionImage {
  std::string_view ops;  // one checked functor code per byte
  ValueImage root;
};

/// Reads a version image: varint depth, the functors outermost-first,
/// the root value.
bool ReadVersion(BufferReader& reader, VersionImage& version) {
  uint64_t depth = 0;
  if (!reader.ReadVarint(depth)) return false;
  if (depth > 1024) return reader.Fail("codec: implausible version depth");
  const size_t ops = reader.position();
  for (uint64_t i = 0; i < depth; ++i) {
    uint8_t op = 0;
    if (!reader.ReadByte(op)) return false;
    if (op > 2) return reader.Fail("codec: bad update functor");
  }
  version.ops = reader.Since(ops);
  return ReadValue(reader, version.root);
}

}  // namespace

void BufferWriter::Varint(uint64_t v) {
  while (v >= 0x80) {
    Byte(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  Byte(static_cast<uint8_t>(v));
}

void BufferWriter::ZigZag(int64_t v) {
  Varint((static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63));
}

void BufferWriter::Str(std::string_view s) {
  Varint(s.size());
  out_.append(s.data(), s.size());
}

void EncodeFact(BufferWriter& writer, Vid vid, MethodId method,
                const GroundApp& app, const SymbolTable& symbols,
                const VersionTable& versions) {
  // Version: functor chain depth, ops outermost-first, then the root OID.
  writer.Varint(versions.depth(vid));
  const std::vector<UpdateKind>& ops = versions.ShapeOps(versions.shape(vid));
  for (UpdateKind op : ops) writer.Byte(static_cast<uint8_t>(op));
  EncodeOid(writer, versions.root(vid), symbols);
  writer.Str(symbols.MethodName(method));
  writer.Varint(app.args.size());
  for (Oid arg : app.args) EncodeOid(writer, arg, symbols);
  EncodeOid(writer, app.result, symbols);
}

Result<FactImage> ScanFact(BufferReader& reader) {
  FactImage image;
  const size_t start = reader.position();
  VersionImage version;
  if (!ReadVersion(reader, version)) return reader.Failure();
  image.version = reader.Since(start);
  if (!reader.ReadView(image.method)) return reader.Failure();
  const size_t values = reader.position();
  uint64_t argc = 0;
  if (!reader.ReadVarint(argc)) return reader.Failure();
  if (argc > reader.remaining()) {
    return Status::Corruption("codec: implausible arg count");
  }
  ValueImage value;
  for (uint64_t i = 0; i <= argc; ++i) {  // the arguments, then the result
    if (!ReadValue(reader, value)) return reader.Failure();
  }
  image.values = reader.Since(values);
  image.bytes = reader.Since(start);
  return image;
}

Result<Vid> FactDecoder::Version(std::string_view image) {
  if (last_vid_.valid() && image == last_version_) return last_vid_;
  BufferReader reader(image);
  VersionImage version;
  if (!ReadVersion(reader, version)) return reader.Failure();
  VERSO_ASSIGN_OR_RETURN(Oid oid, InternValue(version.root, symbols_));
  Vid vid = versions_.OfOid(oid);
  // Functors are stored outermost-first: build the chain innermost-first.
  for (auto op = version.ops.rbegin(); op != version.ops.rend(); ++op) {
    vid = versions_.Child(
        vid, static_cast<UpdateKind>(static_cast<uint8_t>(*op)));
  }
  last_version_ = image;
  last_vid_ = vid;
  return vid;
}

MethodId FactDecoder::Method(std::string_view name) {
  for (const auto& [seen, method] : methods_) {
    if (seen == name) return method;
  }
  MethodId method = symbols_.Method(name);
  if (methods_.size() < kMethodMemo) methods_.emplace_back(name, method);
  return method;
}

Result<GroundApp> FactDecoder::App(const FactImage& image) {
  BufferReader reader(image.values);
  uint64_t argc = 0;
  if (!reader.ReadVarint(argc)) return reader.Failure();
  GroundApp app;
  app.args.reserve(argc);
  ValueImage value;
  for (uint64_t i = 0; i < argc; ++i) {
    if (!ReadValue(reader, value)) return reader.Failure();
    VERSO_ASSIGN_OR_RETURN(Oid oid, InternValue(value, symbols_));
    app.args.push_back(oid);
  }
  if (!ReadValue(reader, value)) return reader.Failure();
  VERSO_ASSIGN_OR_RETURN(app.result, InternValue(value, symbols_));
  return app;
}

Result<DecodedFact> FactDecoder::Decode(const FactImage& image) {
  DecodedFact fact;
  VERSO_ASSIGN_OR_RETURN(fact.vid, Version(image.version));
  fact.method = Method(image.method);
  VERSO_ASSIGN_OR_RETURN(fact.app, App(image));
  return fact;
}

Result<DecodedFact> DecodeFact(BufferReader& reader, SymbolTable& symbols,
                               VersionTable& versions) {
  VERSO_ASSIGN_OR_RETURN(FactImage image, ScanFact(reader));
  return FactDecoder(symbols, versions).Decode(image);
}

std::string EncodeVersionKey(Vid vid, const SymbolTable& symbols,
                             const VersionTable& versions) {
  BufferWriter writer;
  writer.Varint(versions.depth(vid));
  const std::vector<UpdateKind>& ops = versions.ShapeOps(versions.shape(vid));
  for (UpdateKind op : ops) writer.Byte(static_cast<uint8_t>(op));
  EncodeOid(writer, versions.root(vid), symbols);
  return writer.Take();
}

std::string EncodeVersionRecord(Vid vid, const VersionState& state,
                                const SymbolTable& symbols,
                                const VersionTable& versions) {
  BufferWriter writer;
  writer.Varint(state.fact_count());
  for (const auto& [method, apps] : state.methods()) {
    for (const GroundApp& app : apps) {
      EncodeFact(writer, vid, method, app, symbols, versions);
    }
  }
  return writer.Take();
}

Result<Vid> DecodeVersionKey(std::string_view key, FactDecoder& decoder) {
  VERSO_ASSIGN_OR_RETURN(Vid vid, decoder.Version(key));
  // Re-encoding catches every other spelling: padded varints, an
  // unreduced ratio, trailing bytes.
  if (EncodeVersionKey(vid, decoder.symbols(), decoder.versions()) != key) {
    return Status::Corruption("version key is not canonical");
  }
  return vid;
}

Result<size_t> DecodeVersionRecordInto(std::string_view key,
                                       std::string_view data,
                                       FactDecoder& decoder, ObjectBase& base) {
  VERSO_ASSIGN_OR_RETURN(Vid vid, DecodeVersionKey(key, decoder));
  BufferReader reader(data);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  std::vector<std::pair<MethodId, GroundApp>> facts;
  facts.reserve(std::min<uint64_t>(count, reader.remaining()));
  for (uint64_t i = 0; i < count; ++i) {
    VERSO_ASSIGN_OR_RETURN(FactImage image, ScanFact(reader));
    if (image.version != key) {
      return Status::Corruption("version record holds another version's "
                                "fact");
    }
    VERSO_ASSIGN_OR_RETURN(GroundApp app, decoder.App(image));
    facts.emplace_back(decoder.Method(image.method), std::move(app));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("version record has trailing bytes");
  }
  base.AdoptVersion(vid, std::make_shared<VersionState>(
                             VersionState::FromFacts(std::move(facts))));
  return static_cast<size_t>(count);
}

FactDelta ComputeDelta(const ObjectBase& before, const ObjectBase& after) {
  // One walk over both version tries: subtrees and states the two bases
  // share cannot contribute a delta fact and are skipped by pointer
  // equality, and inside a changed state so are the methods whose
  // application storage both sides share. A commit's ob' descends from
  // the committed base by O(1) copies, so this costs what it changed.
  FactDelta delta;
  ObjectBase::VersionMap::Diff(
      before.versions(), after.versions(),
      [&](Vid vid, const ObjectBase::StatePtr* was,
          const ObjectBase::StatePtr* now) {
        ForEachFactChange(
            was == nullptr ? nullptr : was->get(),
            now == nullptr ? nullptr : now->get(),
            [&](MethodId method, const GroundApp& app, bool added) {
              (added ? delta.added : delta.removed)
                  .push_back({vid, method, app});
            });
        return true;
      });
  return delta;
}

void ApplyDelta(const FactDelta& delta, ObjectBase& base) {
  for (const DecodedFact& fact : delta.removed) {
    base.Erase(fact.vid, fact.method, fact.app);
  }
  for (const DecodedFact& fact : delta.added) {
    base.Insert(fact.vid, fact.method, fact.app);
  }
}

namespace {


Result<FactDelta> DecodeDeltaFrom(BufferReader& reader,
                                  FactDecoder& decoder) {
  FactDelta delta;
  for (std::vector<DecodedFact>* facts : {&delta.added, &delta.removed}) {
    VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
    for (uint64_t i = 0; i < count; ++i) {
      VERSO_ASSIGN_OR_RETURN(FactImage image, ScanFact(reader));
      VERSO_ASSIGN_OR_RETURN(DecodedFact fact, decoder.Decode(image));
      facts->push_back(std::move(fact));
    }
  }
  return delta;
}

/// Reads a batch payload's transaction count.
Result<uint64_t> ReadBatchCount(BufferReader& reader, std::string_view data) {
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  if (count > data.size()) {
    return Status::Corruption("codec: implausible batch transaction count");
  }
  return count;
}

}  // namespace

std::string EncodeDeltaBatch(const std::vector<const DeltaLog*>& deltas,
                             const SymbolTable& symbols,
                             const VersionTable& versions) {
  BufferWriter writer;
  auto encode = [&](DeltaLog::const_iterator first,
                    DeltaLog::const_iterator last) {
    writer.Varint(static_cast<uint64_t>(last - first));
    for (; first != last; ++first) {
      EncodeFact(writer, first->vid, first->method, first->app, symbols,
                 versions);
    }
  };
  writer.Varint(deltas.size());
  for (const DeltaLog* delta : deltas) {
    // The log leads with its removals; the record lists additions first.
    const auto additions =
        std::partition_point(delta->begin(), delta->end(),
                             [](const DeltaFact& fact) { return !fact.added; });
    encode(additions, delta->end());
    encode(delta->begin(), additions);
  }
  return writer.Take();
}

Result<std::vector<FactDelta>> DecodeDeltaBatch(std::string_view data,
                                                SymbolTable& symbols,
                                                VersionTable& versions) {
  BufferReader reader(data);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, ReadBatchCount(reader, data));
  FactDecoder decoder(symbols, versions);
  std::vector<FactDelta> deltas;
  deltas.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VERSO_ASSIGN_OR_RETURN(FactDelta delta, DecodeDeltaFrom(reader, decoder));
    deltas.push_back(std::move(delta));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("batch payload has trailing bytes");
  }
  return deltas;
}

Result<size_t> ReplayDeltaBatches(const std::vector<std::string>& payloads,
                                  SymbolTable& symbols,
                                  VersionTable& versions, ObjectBase& base) {
  // One entry per distinct image, in order of first occurrence in the
  // log's bytes, with its last operation and that operation's position in
  // application order. Kept small: every logged fact probes and updates
  // one.
  struct LastOp {
    std::string_view image;
    size_t hash;
    uint64_t position = 0;
    bool added = false;
  };
  std::vector<LastOp> last;
  // Open addressing over `last`: slot -> entry + 1, 0 when free; kept at
  // most half full.
  std::vector<uint32_t> slots(1024, 0);
  auto entry = [&](std::string_view image) -> size_t {
    const size_t hash = std::hash<std::string_view>()(image);
    size_t mask = slots.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      if (slots[i] == 0) break;
      const LastOp& op = last[slots[i] - 1];
      if (op.hash == hash && op.image == image) return slots[i] - 1;
    }
    last.push_back({image, hash});
    if (last.size() * 2 > slots.size()) {
      slots.assign(slots.size() * 2, 0);
      mask = slots.size() - 1;
      for (uint32_t e = 0; e < last.size(); ++e) {
        size_t i = last[e].hash & mask;
        while (slots[i] != 0) i = (i + 1) & mask;
        slots[i] = e + 1;
      }
    } else {
      size_t i = hash & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = static_cast<uint32_t>(last.size());
    }
    return last.size() - 1;
  };
  uint64_t position = 0;
  std::vector<size_t> additions;
  for (const std::string& payload : payloads) {
    BufferReader reader(payload);
    VERSO_ASSIGN_OR_RETURN(uint64_t count, ReadBatchCount(reader, payload));
    for (uint64_t t = 0; t < count; ++t) {
      // A transaction lists its additions first but applies its removals
      // first: hold the additions back until the removals are placed.
      additions.clear();
      VERSO_ASSIGN_OR_RETURN(uint64_t added, reader.Varint());
      for (uint64_t i = 0; i < added; ++i) {
        VERSO_ASSIGN_OR_RETURN(FactImage image, ScanFact(reader));
        additions.push_back(entry(image.bytes));
      }
      VERSO_ASSIGN_OR_RETURN(uint64_t removed, reader.Varint());
      for (uint64_t i = 0; i < removed; ++i) {
        VERSO_ASSIGN_OR_RETURN(FactImage image, ScanFact(reader));
        LastOp& op = last[entry(image.bytes)];
        op.position = position++;
        op.added = false;
      }
      for (size_t e : additions) {
        last[e].position = position++;
        last[e].added = true;
      }
    }
    if (!reader.AtEnd()) {
      return Status::Corruption("batch payload has trailing bytes");
    }
  }
  // Decode in first-occurrence order, so symbols and versions are
  // interned in the order fact-by-fact replay interns them and the
  // engine's ids (and so the order of query rows) come out the same.
  FactDecoder decoder(symbols, versions);
  std::vector<DecodedFact> facts;
  facts.reserve(last.size());
  for (const LastOp& op : last) {
    BufferReader reader(op.image);
    VERSO_ASSIGN_OR_RETURN(FactImage image, ScanFact(reader));
    VERSO_ASSIGN_OR_RETURN(DecodedFact fact, decoder.Decode(image));
    facts.push_back(std::move(fact));
  }
  // Apply in last-occurrence order: positions are distinct and below
  // `position`, so place each entry at its own and walk them.
  std::vector<uint32_t> by_position(position, 0);
  for (uint32_t e = 0; e < last.size(); ++e) {
    by_position[last[e].position] = e + 1;
  }
  for (uint32_t slot : by_position) {
    if (slot == 0) continue;
    DecodedFact& fact = facts[slot - 1];
    if (last[slot - 1].added) {
      base.Insert(fact.vid, fact.method, std::move(fact.app));
    } else {
      base.Erase(fact.vid, fact.method, fact.app);
    }
  }
  return last.size();
}

DeltaLog ToDeltaLog(const FactDelta& delta) {
  DeltaLog log;
  log.reserve(delta.added.size() + delta.removed.size());
  for (const DecodedFact& fact : delta.removed) {
    log.push_back({fact.vid, fact.method, fact.app, /*added=*/false});
  }
  for (const DecodedFact& fact : delta.added) {
    log.push_back({fact.vid, fact.method, fact.app, /*added=*/true});
  }
  return log;
}

}  // namespace verso
