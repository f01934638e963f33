// Persistence substrate: codec round-trips, WAL framing with torn-tail
// recovery, and the Database facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "core/pretty.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "store/store.h"
#include "util/crc32.h"
#include "util/fault_env.h"
#include "util/io.h"

namespace verso {
namespace {

// ---- codec primitives ------------------------------------------------------

TEST(CodecTest, VarintRoundTrip) {
  const std::vector<uint64_t> values = {0,   1,        127,       128,
                                        300, 1ull << 40, UINT64_MAX};
  BufferWriter w;
  for (uint64_t v : values) w.Varint(v);
  BufferReader r(w.buffer());
  for (uint64_t v : values) {
    Result<uint64_t> back = r.Varint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ZigZagRoundTrip) {
  const std::vector<int64_t> values = {0, -1, 1, -64, 64, INT64_MIN,
                                       INT64_MAX};
  BufferWriter w;
  for (int64_t v : values) w.ZigZag(v);
  BufferReader r(w.buffer());
  for (int64_t v : values) {
    Result<int64_t> back = r.ZigZag();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(CodecTest, StrRoundTripAndTruncation) {
  BufferWriter w;
  w.Str("hello");
  w.Str("");
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.Str(), "hello");
  EXPECT_EQ(*r.Str(), "");
  // Truncated buffer errors out rather than reading past the end.
  BufferReader bad(std::string_view(w.buffer().data(), 3));
  EXPECT_FALSE(bad.Str().ok());
}

// ---- version record / delta round-trips ----------------------------------

class StorageFixture : public ::testing::Test {
 protected:
  StorageFixture() {
    // One directory per test: ctest runs each TEST as its own process,
    // possibly in parallel, so a shared fixed path races.
    dir_ = ::testing::TempDir() + "/verso_storage_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    EnsureDirectory(dir_).ok();
  }

  ObjectBase Base(const char* text, Engine& engine) {
    Result<ObjectBase> base = ParseObjectBase(text, engine);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return std::move(base).value();
  }

  std::string dir_;
};

constexpr const char* kRichBase = R"(
    phil.isa -> empl.  phil.sal -> 4600.
    mod(phil).sal -> 5060.
    del(mod(bob)).exists -> bob.
    m.at@1,2 -> 20.   m.at@1,"s" -> -3.5.
)";

TEST_F(StorageFixture, ObjectBaseEncodesAcrossEngines) {
  // A checkpoint stores the base one version record per key; recovery
  // decodes each record into whatever engine opens the directory.
  Engine a;
  ObjectBase base = Base(kRichBase, a);
  std::vector<std::pair<std::string, std::string>> records;
  for (const auto& [vid, state] : base.versions()) {
    records.emplace_back(
        EncodeVersionKey(vid, a.symbols(), a.versions()),
        EncodeVersionRecord(vid, *state, a.symbols(), a.versions()));
  }
  ASSERT_GT(records.size(), 1u);

  // Decode into a *different* engine whose interning order differs.
  Engine b;
  b.symbols().Symbol("unrelated");
  b.symbols().Symbol("phil");
  ObjectBase decoded = b.MakeBase();
  FactDecoder decoder(b.symbols(), b.versions());
  for (const auto& [key, record] : records) {
    ASSERT_TRUE(DecodeVersionRecordInto(key, record, decoder, decoded).ok());
  }
  EXPECT_EQ(ObjectBaseToString(decoded, b.symbols(), b.versions()),
            ObjectBaseToString(base, a.symbols(), a.versions()));
}

TEST_F(StorageFixture, DeltaComputeApplyInverts) {
  Engine engine;
  ObjectBase before = Base("a.m -> 1.  b.m -> 2.  c.m -> 3.", engine);
  ObjectBase after = Base("a.m -> 1.  b.m -> 20.  d.m -> 4.", engine);
  FactDelta delta = ComputeDelta(before, after);
  EXPECT_EQ(delta.added.size(), 2u);    // b.m->20, d.m->4
  EXPECT_EQ(delta.removed.size(), 2u);  // b.m->2, c.m->3
  ObjectBase patched = before;
  ApplyDelta(delta, patched);
  EXPECT_TRUE(patched == after);
}

TEST_F(StorageFixture, CorruptPayloadIsDetected) {
  Engine engine;
  ObjectBase base = Base("a.m -> 1.", engine);
  Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
  std::string key = EncodeVersionKey(a, engine.symbols(), engine.versions());
  std::string record = EncodeVersionRecord(a, *base.StateOf(a),
                                           engine.symbols(), engine.versions());
  // Every truncation is a Status, never a crash or a silent partial read.
  for (size_t len = 0; len < record.size(); ++len) {
    ObjectBase out = engine.MakeBase();
    FactDecoder decoder(engine.symbols(), engine.versions());
    Result<size_t> facts =
        DecodeVersionRecordInto(key, record.substr(0, len), decoder, out);
    EXPECT_EQ(facts.status().code(), StatusCode::kCorruption)
        << "length " << len;
  }
}

// ---- WAL --------------------------------------------------------------------

TEST_F(StorageFixture, WalAppendAndRead) {
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("first").ok());
  ASSERT_TRUE(writer.Append("").ok());
  ASSERT_TRUE(writer.Append("third record").ok());
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated_tail);
  ASSERT_EQ(r->records.size(), 3u);
  EXPECT_EQ(r->records[0], "first");
  EXPECT_EQ(r->records[1], "");
  EXPECT_EQ(r->records[2], "third record");
}

TEST_F(StorageFixture, MissingWalIsEmpty) {
  Result<WalReadResult> r = ReadWal(dir_ + "/none.log");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->records.empty());
}

TEST_F(StorageFixture, TornTailIsDroppedNotFatal) {
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("keep me").ok());
  ASSERT_TRUE(writer.Append("torn").ok());
  std::string bytes = *ReadFile(path);
  bytes.resize(bytes.size() - 2);  // simulate crash mid-write
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated_tail);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0], "keep me");
}

TEST_F(StorageFixture, CorruptMiddleRecordDropsAllLaterRecords) {
  // A corrupt record in the MIDDLE of the log is indistinguishable from a
  // torn tail at that point: the bit-perfect records AFTER it are
  // intentionally dropped too, because replaying deltas with a gap would
  // fabricate a state no committed prefix ever had. The dropped bytes are
  // preserved (wal.log.corrupt) by Database recovery, not destroyed.
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("keep").ok());
  ASSERT_TRUE(writer.Append("corrupt me").ok());
  ASSERT_TRUE(writer.Append("perfectly valid but unreachable").ok());
  std::string bytes = *ReadFile(path);
  // Flip one payload bit of the SECOND record: frame 1 ends at 12+4.
  bytes[16 + 12 + 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated_tail);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0], "keep");
  // Only the prefix before the damage counts as valid.
  EXPECT_EQ(r->valid_bytes, 16u);
}

TEST_F(StorageFixture, LengthWordBitFlipIsCaughtDeterministically) {
  // Frames carry a CRC over the length word itself, and its two high bits
  // are the tag every frame sets, so a bit-flip anywhere in the length
  // word is caught deterministically and never mis-frames the log.
  std::string path = dir_ + "/wal.log";
  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("first record payload").ok());
  ASSERT_TRUE(writer.Append("second").ok());
  std::string pristine = *ReadFile(path);
  // Every bit of the length word, including ones that would SHRINK the
  // frame so the next "frame" starts inside this record's payload, and
  // the two tag bits.
  for (int bit = 0; bit < 32; ++bit) {
    std::string bytes = pristine;
    bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ASSERT_TRUE(WriteFile(path, bytes).ok());
    Result<WalReadResult> r = ReadWal(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->truncated_tail) << "bit " << bit;
    EXPECT_TRUE(r->records.empty()) << "bit " << bit;
    EXPECT_EQ(r->valid_bytes, 0u) << "bit " << bit;
  }
}

TEST_F(StorageFixture, V1FrameEndsTheValidPrefix) {
  // Hand-craft a frame of the early v1 format (u32 length | u32 payload
  // CRC | payload, no tag) and append a current record after it. The v1
  // frame lacks the tag, so it ends the valid prefix like a torn tail and
  // the record behind it is unreachable.
  std::string path = dir_ + "/wal.log";
  const std::string payload = "legacy v1 payload";
  std::string frame;
  uint32_t length = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame += static_cast<char>((length >> (8 * i)) & 0xff);
  }
  uint32_t crc = Crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    frame += static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  frame += payload;
  ASSERT_TRUE(AppendFile(path, frame).ok());

  WalWriter writer(path);
  ASSERT_TRUE(writer.Append("current").ok());

  Result<WalReadResult> r = ReadWal(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated_tail);
  EXPECT_TRUE(r->records.empty());
  EXPECT_EQ(r->valid_bytes, 0u);
}

// ---- Database ----------------------------------------------------------------

TEST_F(StorageFixture, DatabaseExecuteAndRecover) {
  std::string dbdir = dir_ + "/db";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ObjectBase base = Base("henry.isa -> empl.  henry.sal -> 100.", engine);
    ASSERT_TRUE((*db)->ImportBase(base).ok());
    Result<Program> raise = ParseProgram(
        "r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, "
        "S2 = S * 2.", engine);
    ASSERT_TRUE(raise.ok());
    ASSERT_TRUE((*db)->Execute(*raise).ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
  }
  // Reopen without a checkpoint: recovery replays the WAL.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    Vid henry = engine.versions().OfOid(engine.symbols().Symbol("henry"));
    GroundApp sal;
    sal.result = engine.symbols().Int(200);
    EXPECT_TRUE((*db)->current().Contains(
        henry, engine.symbols().Method("sal"), sal));
    // Checkpoint folds the WAL into the store.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    EXPECT_FALSE(FileExists(dbdir + "/wal.log"));
  }
  // And a third open loads from the store alone.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    Vid henry = engine.versions().OfOid(engine.symbols().Symbol("henry"));
    GroundApp sal;
    sal.result = engine.symbols().Int(200);
    EXPECT_TRUE((*db)->current().Contains(
        henry, engine.symbols().Method("sal"), sal));
  }
}

TEST_F(StorageFixture, DatabaseSurvivesTornWalTail) {
  std::string dbdir = dir_ + "/db2";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.n -> 2.", engine)).ok());
  }
  // A zero-filled tail, as a power cut can leave when the file's length
  // reaches disk before its data. CRC-32 of zero bytes is zero, so only
  // the frame tag tells these zeros from records.
  const std::string committed = *ReadFile(dbdir + "/wal.log");
  const std::string zeros(64, '\0');
  ASSERT_TRUE(WriteFile(dbdir + "/wal.log", committed + zeros).ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    // Both imports survived.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp one;
    one.result = engine.symbols().Int(1);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("m"), one));
    GroundApp two;
    two.result = engine.symbols().Int(2);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("n"), two));
  }
  // The zeros were chopped off the log and kept for forensics.
  EXPECT_EQ(*ReadFile(dbdir + "/wal.log"), committed);
  EXPECT_EQ(*ReadFile(dbdir + "/wal.log.corrupt"), zeros);
}

TEST_F(StorageFixture, CorruptTailPreservationIsCappedAndNonFatal) {
  std::string dbdir = dir_ + "/db_cap";
  auto tear_tail = [&] {
    std::string bytes = *ReadFile(dbdir + "/wal.log");
    bytes.resize(bytes.size() - 3);
    ASSERT_TRUE(WriteFile(dbdir + "/wal.log", bytes).ok());
  };
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.n -> 2.", engine)).ok());
  }
  // A healthy torn-tail recovery preserves the tail and reports Ok.
  tear_tail();
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    EXPECT_TRUE((*db)->corrupt_tail_preservation().ok());
    EXPECT_TRUE(FileExists(dbdir + "/wal.log.corrupt"));
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.n -> 2.", engine)).ok());
  }
  // Now pretend many earlier recoveries already filled the side file to
  // its growth cap. The next torn-tail recovery must still succeed, must
  // not grow the side file, and must RECORD that the forensic copy was
  // dropped instead of silently swallowing the failure (the old code
  // aborted recovery outright on any preservation problem).
  tear_tail();
  ASSERT_TRUE(
      WriteFile(dbdir + "/wal.log.corrupt",
                std::string(Database::kCorruptPreserveCap, 'x'))
          .ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    EXPECT_FALSE((*db)->corrupt_tail_preservation().ok());
    EXPECT_EQ(*FileSize(dbdir + "/wal.log.corrupt"),
              Database::kCorruptPreserveCap);
    // The valid prefix still recovered and the database still serves.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp one;
    one.result = engine.symbols().Int(1);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("m"), one));
  }
  // Just below the cap: the tail is trimmed to fit, recorded as partial.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. a.p -> 3.", engine)).ok());
  }
  tear_tail();
  ASSERT_TRUE(
      WriteFile(dbdir + "/wal.log.corrupt",
                std::string(Database::kCorruptPreserveCap - 1, 'x'))
          .ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE((*db)->corrupt_tail_preservation().ok());
    EXPECT_EQ(*FileSize(dbdir + "/wal.log.corrupt"),
              Database::kCorruptPreserveCap);
  }
}

TEST_F(StorageFixture, ExecuteBatchGroupCommitsOneRecord) {
  std::string dbdir = dir_ + "/db_batch";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.sal -> 100.", engine)).ok());
    Result<Program> p1 = ParseProgram(
        "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S + 1.", engine);
    Result<Program> p2 = ParseProgram("t: ins[b].sal -> 7.", engine);
    Result<Program> p3 = ParseProgram(
        "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S * 2.", engine);
    ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
    std::vector<Program*> batch = {&*p1, &*p2, &*p3};
    Result<std::vector<RunOutcome>> out = (*db)->ExecuteBatch(batch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), 3u);
    // One record for the import, ONE for the whole three-transaction
    // group — the second transaction sees the first's effects.
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    Result<WalReadResult> wal = ReadWal(dbdir + "/wal.log");
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->records.size(), 2u);
  }
  // Recovery replays every transaction of the batch in order.
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp sal;
    sal.result = engine.symbols().Int(202);  // (100 + 1) * 2
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("sal"), sal));
    Vid b = engine.versions().OfOid(engine.symbols().Symbol("b"));
    GroundApp seven;
    seven.result = engine.symbols().Int(7);
    EXPECT_TRUE(
        (*db)->current().Contains(b, engine.symbols().Method("sal"), seven));
  }
}

TEST_F(StorageFixture, ExecuteBatchIsAllOrNothing) {
  std::string dbdir = dir_ + "/db_batch_fail";
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ImportBase(Base("o.m -> a.", engine)).ok());
  Result<Program> good = ParseProgram("t: ins[o].m -> b.", engine);
  // Non-linear program: fails to evaluate.
  Result<Program> bad = ParseProgram(
      "r1: mod[o].m -> (a, b) <- o.m -> a."
      "r2: del[o].m -> a <- o.m -> a.", engine);
  ASSERT_TRUE(good.ok() && bad.ok());
  size_t records = (*db)->wal_records_since_checkpoint();
  std::vector<Program*> batch = {&*good, &*bad};
  Result<std::vector<RunOutcome>> out = (*db)->ExecuteBatch(batch);
  EXPECT_FALSE(out.ok());
  // Neither the good nor the bad transaction committed.
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), records);
  Vid o = engine.versions().OfOid(engine.symbols().Symbol("o"));
  GroundApp b;
  b.result = engine.symbols().Symbol("b");
  EXPECT_FALSE((*db)->current().Contains(o, engine.symbols().Method("m"), b));
}

TEST_F(StorageFixture, PreBatchRecordEndsTheRecoveredPrefix) {
  std::string dbdir = dir_ + "/db_mixed";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
  }
  const std::string committed = *ReadFile(dbdir + "/wal.log");
  // Hand-build a record of the early pre-batch format behind the batch
  // frame: one bare delta image (a one-delta batch without its leading
  // count), in a frame whose length word lacks the batch bit.
  std::string frame;
  {
    Engine engine;
    DeltaLog delta =
        ToDeltaLog(ComputeDelta(engine.MakeBase(), Base("b.m -> 2.", engine)));
    std::string payload =
        EncodeDeltaBatch({&delta}, engine.symbols(), engine.versions())
            .substr(1);
    auto append_u32 = [&frame](uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        frame += static_cast<char>((v >> (8 * i)) & 0xff);
      }
    };
    append_u32(static_cast<uint32_t>(payload.size()) | 0x40000000u);
    append_u32(Crc32(frame.data(), 4));
    append_u32(Crc32(payload.data(), payload.size()));
    frame += payload;
  }
  ASSERT_TRUE(AppendFile(dbdir + "/wal.log", frame).ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 1u);
    // Only the first commit is recovered.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    Vid b = engine.versions().OfOid(engine.symbols().Symbol("b"));
    EXPECT_NE((*db)->current().StateOf(a), nullptr);
    EXPECT_EQ((*db)->current().StateOf(b), nullptr);
  }
  // The pre-batch record is preserved, not replayed.
  EXPECT_EQ(*ReadFile(dbdir + "/wal.log"), committed);
  EXPECT_EQ(*ReadFile(dbdir + "/wal.log.corrupt"), frame);
}

TEST_F(StorageFixture, TornTailInsideBatchedFrameDropsWholeGroup) {
  std::string dbdir = dir_ + "/db_torn_batch";
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    // Record 1: a plain import. Record 2: a three-transaction group
    // commit — ONE kind-tagged batched frame.
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
    Result<Program> p1 = ParseProgram("t: ins[b].m -> 2.", engine);
    Result<Program> p2 = ParseProgram("t: ins[c].m -> 3.", engine);
    Result<Program> p3 = ParseProgram("t: ins[d].m -> 4.", engine);
    ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
    std::vector<Program*> batch = {&*p1, &*p2, &*p3};
    ASSERT_TRUE((*db)->ExecuteBatch(batch).ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
  }
  // Tear the tail INSIDE the batched frame: the payload of the second
  // record loses its final bytes, as if the writer crashed mid-append.
  std::string bytes = *ReadFile(dbdir + "/wal.log");
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(WriteFile(dbdir + "/wal.log", bytes).ok());
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_torn_wal());
    // The dropped bytes are preserved for forensics, not destroyed.
    EXPECT_TRUE(FileExists(dbdir + "/wal.log.corrupt"));
    // The frame is the durability unit: NONE of the group's three
    // transactions survives — not even the ones whose bytes were intact —
    // while the earlier record is fully recovered.
    Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
    GroundApp one;
    one.result = engine.symbols().Int(1);
    EXPECT_TRUE(
        (*db)->current().Contains(a, engine.symbols().Method("m"), one));
    for (const char* obj : {"b", "c", "d"}) {
      Vid vid = engine.versions().OfOid(engine.symbols().Symbol(obj));
      EXPECT_EQ((*db)->current().StateOf(vid), nullptr) << obj;
    }
    // The torn tail is gone for good: later commits append after it.
    Result<Program> p = ParseProgram("t: ins[e].m -> 5.", engine);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*db)->Execute(*p).ok());
  }
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
    ASSERT_TRUE(db.ok());
    Vid e = engine.versions().OfOid(engine.symbols().Symbol("e"));
    EXPECT_NE((*db)->current().StateOf(e), nullptr);
  }
}

TEST_F(StorageFixture, InMemoryDatabaseCommitsWithoutTouchingDisk) {
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::OpenInMemory(engine);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ImportBase(Base("a.sal -> 100.", engine)).ok());
  Result<Program> p = ParseProgram(
      "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S * 2.", engine);
  ASSERT_TRUE(p.ok());
  Result<RunOutcome> out = (*db)->Execute(*p);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*db)->commit_epoch(), 2u);
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
  EXPECT_TRUE((*db)->Checkpoint().ok());  // no-op, not an error
  // The committed delta is exposed on the outcome: the old salary fact
  // removed, the doubled one added (plus the sealed exists fact).
  MethodId sal = engine.symbols().Method("sal");
  bool removed_100 = false, added_200 = false;
  for (const DeltaFact& fact : out->committed_delta) {
    if (fact.method != sal) continue;
    if (!fact.added && fact.app.result == engine.symbols().Int(100)) {
      removed_100 = true;
    }
    if (fact.added && fact.app.result == engine.symbols().Int(200)) {
      added_200 = true;
    }
  }
  EXPECT_TRUE(removed_100);
  EXPECT_TRUE(added_200);
  EXPECT_FALSE(Database::Open("", engine).ok());  // empty dir is rejected
}

TEST_F(StorageFixture, AddObserverIsIdempotent) {
  class CountingObserver : public CommitObserver {
   public:
    Status OnCommit(const DeltaLog&, const ObjectBase&, uint64_t) override {
      ++commits;
      return Status::Ok();
    }
    int commits = 0;
  };
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::OpenInMemory(engine);
  ASSERT_TRUE(db.ok());
  CountingObserver observer;
  (*db)->AddObserver(&observer);
  (*db)->AddObserver(&observer);  // no-op, not a second registration
  ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
  EXPECT_EQ(observer.commits, 1);
  (*db)->RemoveObserver(&observer);
}

TEST_F(StorageFixture, DeltaBatchRoundTrip) {
  Engine engine;
  ObjectBase empty = engine.MakeBase();
  ObjectBase one = Base("a.m -> 1.", engine);
  ObjectBase two = Base("a.m -> 1.  b.m -> 2.", engine);
  const DeltaLog first = ToDeltaLog(ComputeDelta(empty, one));
  const DeltaLog second = ToDeltaLog(ComputeDelta(one, two));
  std::string payload =
      EncodeDeltaBatch({&first, &second}, engine.symbols(), engine.versions());
  Result<std::vector<FactDelta>> back =
      DecodeDeltaBatch(payload, engine.symbols(), engine.versions());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  ObjectBase replayed = engine.MakeBase();
  for (const FactDelta& delta : *back) ApplyDelta(delta, replayed);
  EXPECT_TRUE(replayed == two);
  // Truncation is corruption, not silent data loss.
  payload.resize(payload.size() - 1);
  EXPECT_FALSE(
      DecodeDeltaBatch(payload, engine.symbols(), engine.versions()).ok());
}

TEST_F(StorageFixture, CheckpointCrashWindowLosesNothing) {
  // Checkpoint is two durability steps: (1) commit the base into the
  // store — install the new image by atomic rename — (2) remove the WAL.
  // A crash anywhere in that sequence must lose nothing: before the
  // rename the old image + full WAL recover; after it the new image +
  // stale WAL recover (replaying the already-folded records
  // idempotently). This is the regression test for the crash window
  // between the two steps.
  using FaultKind = FaultInjectingEnv::FaultKind;
  using OpFilter = FaultInjectingEnv::OpFilter;
  struct Window {
    OpFilter filter;
    uint64_t nth;    // which op of that kind, counted from the checkpoint
    size_t partial;  // non-data ops: 0 = op did not happen, 1 = it did
    const char* what;
  };
  const Window windows[] = {
      {OpFilter::kWrite, 0, 0, "crash before the store image tmp write"},
      {OpFilter::kWrite, 0, 9,
       "crash mid store image tmp write (short write)"},
      {OpFilter::kSync, 0, 0, "crash at the store image tmp sync"},
      {OpFilter::kRename, 0, 0, "crash before the store image rename"},
      {OpFilter::kRename, 0, 1, "crash after rename, before the dir sync"},
      {OpFilter::kSync, 1, 0, "crash at the directory sync"},
      {OpFilter::kRemove, 0, 0, "crash before the WAL removal"},
      {OpFilter::kRemove, 0, 1, "crash after the WAL removal"},
  };
  for (const Window& w : windows) {
    SCOPED_TRACE(w.what);
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.retry_backoff_us = 0;
    std::string expected;
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open("/db", engine, options);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1.", engine)).ok());
      // An earlier checkpoint, so the torture'd one REPLACES an image.
      ASSERT_TRUE((*db)->Checkpoint().ok());
      ASSERT_TRUE(
          (*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
      expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                    engine.versions());
      FaultInjectingEnv::FaultPlan plan;
      plan.fail_at = w.nth;
      plan.kind = FaultKind::kCrash;
      plan.partial_bytes = w.partial;
      plan.filter = w.filter;
      env.SetPlan(plan);
      EXPECT_FALSE((*db)->Checkpoint().ok());
      ASSERT_TRUE(env.crashed());
    }
    auto disk = env.CloneSurvivingFiles();
    DatabaseOptions reopen;
    reopen.env = disk.get();
    reopen.retry_backoff_us = 0;
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, reopen);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                 engine.versions()),
              expected);
    // The recovered database is fully writable again.
    EXPECT_TRUE(db->get()->health().ok());
    ASSERT_TRUE(
        (*db)->ImportBase(Base("a.m -> 1. b.m -> 2. c.m -> 3.", engine))
            .ok());
  }
}

TEST_F(StorageFixture, FailedCheckpointSyncLeavesTheWalAndAHealthyDatabase) {
  // A sync that fails inside the store commit fails the checkpoint like
  // any store error: the WAL stays, the database stays healthy, and the
  // store keeps serving the last checkpoint. The commit after it reverts
  // one version the failed checkpoint staged and drops one it added, so a
  // store that kept the failed commit's bytes (an image renamed into
  // place before its directory sync failed) would reopen to a stale
  // state once the next checkpoint removes the WAL.
  using FaultKind = FaultInjectingEnv::FaultKind;
  using OpFilter = FaultInjectingEnv::OpFilter;
  struct Point {
    uint64_t nth;  // which sync of the checkpoint fails
    const char* what;
  };
  const Point points[] = {
      {0, "image sync"},
      {1, "directory sync after the rename"},
  };
  for (const Point& p : points) {
    SCOPED_TRACE(p.what);
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.retry_backoff_us = 0;
    std::string expected;
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open("/db", engine, options);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
      ASSERT_TRUE((*db)->Checkpoint().ok());
      const uint64_t generation = (*db)->checkpoint_generation();
      ASSERT_TRUE(
          (*db)->ImportBase(Base("a.m -> 1. b.m -> 3. c.m -> 4.", engine))
              .ok());
      const size_t records = (*db)->wal_records_since_checkpoint();
      FaultInjectingEnv::FaultPlan plan;
      plan.fail_at = p.nth;
      plan.kind = FaultKind::kEio;
      plan.filter = OpFilter::kSync;
      env.SetPlan(plan);
      EXPECT_FALSE((*db)->Checkpoint().ok());
      EXPECT_EQ(env.faults_hit(), 1u);
      env.Disarm();
      EXPECT_TRUE((*db)->health().ok());
      EXPECT_TRUE(env.FileExists("/db/wal.log"));
      EXPECT_EQ((*db)->wal_records_since_checkpoint(), records);
      EXPECT_EQ((*db)->checkpoint_generation(), generation);
      EXPECT_EQ((*db)->stats().io_failures, 1u);

      ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
      expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                    engine.versions());
      ASSERT_TRUE((*db)->Checkpoint().ok());
      EXPECT_FALSE(env.FileExists("/db/wal.log"));
    }
    auto disk = env.CloneSurvivingFiles();
    DatabaseOptions reopen = options;
    reopen.env = disk.get();
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, reopen);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                 engine.versions()),
              expected);
  }
}

TEST_F(StorageFixture, CheckpointWithNothingToWriteMakesNoStoreCommit) {
  // A commit and its revert leave every version equal to what the store
  // holds: the checkpoint writes no byte of the store, keeps the
  // generation (it counts store commits), and removes the WAL, and the
  // store alone reopens to the same base.
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  const std::string store_file = "/db/store.img";
  std::string expected;
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    const uint64_t generation = (*db)->checkpoint_generation();
    EXPECT_EQ(generation, 1u);
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 5. b.m -> 2.", engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(Base("a.m -> 1. b.m -> 2.", engine)).ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    const std::string stored = env.files().at(store_file);
    const uint64_t ops = env.mutating_ops();
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ(env.files().at(store_file), stored);
    EXPECT_EQ(env.mutating_ops(), ops + 1);  // the WAL's removal only
    EXPECT_EQ((*db)->checkpoint_generation(), generation);
    EXPECT_FALSE(env.FileExists("/db/wal.log"));
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                  engine.versions());
  }
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->checkpoint_generation(), 1u);
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
  EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                               engine.versions()),
            expected);
}

TEST_F(StorageFixture, CheckpointBoundsRecoveryToTheWalSuffix) {
  // The acceptance property of the store rebase: a cold open after a
  // checkpoint replays ONLY the post-checkpoint WAL suffix (frame-count
  // metric), rebuilding the bulk of the base from the store's "b/" range
  // scan instead of the full commit history.
  Counter& frames = MetricsRegistry::Global().GetCounter(
      "storage.recovery_replayed_frames");
  Counter& store_keys =
      MetricsRegistry::Global().GetCounter("storage.recovery_store_keys");
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  std::string expected;
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok());
    // 6 pre-checkpoint commits, then the fold, then a 2-commit suffix.
    std::string text;
    for (int i = 0; i < 6; ++i) {
      text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
      ASSERT_TRUE((*db)->ImportBase(Base(text.c_str(), engine)).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->checkpoint_generation(), 1u);
    for (int i = 6; i < 8; ++i) {
      text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
      ASSERT_TRUE((*db)->ImportBase(Base(text.c_str(), engine)).ok());
    }
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                  engine.versions());
  }
  uint64_t frames_before = frames.value();
  uint64_t keys_before = store_keys.value();
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
  EXPECT_EQ(frames.value() - frames_before, 2u);  // suffix only
  EXPECT_EQ(store_keys.value() - keys_before, 6u);  // o0..o5 from store
  EXPECT_EQ((*db)->checkpoint_generation(), 1u);
  EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                               engine.versions()),
            expected);
}

TEST_F(StorageFixture, RecoveryDecodesEachStoredFactAndEachDistinctLoggedFact) {
  // storage.recovery_facts_decoded counts the fact images a recovery
  // decodes: every fact of every stored record, then each distinct image
  // of the WAL suffix once, however often the suffix logs it.
  Counter& decoded = MetricsRegistry::Global().GetCounter(
      "storage.recovery_facts_decoded");
  Counter& frames = MetricsRegistry::Global().GetCounter(
      "storage.recovery_replayed_frames");
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  constexpr const char* kStored = "o0.m -> 0. o1.m -> 1. o1.n -> x.";
  std::string expected;
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok());
    // Stored: 2 records, 3 facts.
    ASSERT_TRUE((*db)->ImportBase(Base(kStored, engine)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // The suffix: 3 frames, 5 fact operations on 3 distinct facts
    // (o0.m -> 0 removed and added back, o0.m -> 5 added and removed,
    // o2.m -> 2 added).
    ASSERT_TRUE((*db)->ImportBase(
        Base("o0.m -> 5. o1.m -> 1. o1.n -> x.", engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(Base(kStored, engine)).ok());
    ASSERT_TRUE((*db)->ImportBase(
        Base("o0.m -> 0. o1.m -> 1. o1.n -> x. o2.m -> 2.", engine)).ok());
    expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                  engine.versions());
  }
  const uint64_t decoded_before = decoded.value();
  const uint64_t frames_before = frames.value();
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(frames.value() - frames_before, 3u);
  EXPECT_EQ(decoded.value() - decoded_before, 3u + 3u);
  EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                               engine.versions()),
            expected);
}

TEST_F(StorageFixture, StoredRecordMustNameExactlyOneVersion) {
  // A checkpoint puts and deletes a version's record under its canonical
  // key. A record under another spelling of that key, or one holding
  // another version's fact, would never be rewritten or deleted, and its
  // facts would come back on every reopen: recovery refuses both with
  // Corruption and leaves every file as it found it.
  Engine engine;
  ObjectBase base = Base("a.m -> 1. a.n -> 2. b.m -> 3.", engine);
  const Vid a = engine.versions().OfOid(engine.symbols().Symbol("a"));
  const Vid b = engine.versions().OfOid(engine.symbols().Symbol("b"));
  const std::string key_a =
      EncodeVersionKey(a, engine.symbols(), engine.versions());
  const std::string record_a = EncodeVersionRecord(
      a, *base.StateOf(a), engine.symbols(), engine.versions());
  const std::string record_b = EncodeVersionRecord(
      b, *base.StateOf(b), engine.symbols(), engine.versions());
  // a's record: a count of 2, then two facts of equal length.
  ASSERT_EQ(record_a[0], '\x02');
  const size_t fact_bytes = (record_a.size() - 1) / 2;
  const std::string fact_a1 = record_a.substr(1, fact_bytes);
  const std::string fact_a2 = record_a.substr(1 + fact_bytes);
  ASSERT_EQ(key_a[0], '\0');  // depth 0
  // a's depth as a two-byte varint: the same version, another spelling,
  // in the key and in both facts alike.
  const std::string padded_key = "\x80" + key_a;
  const std::string padded_record =
      std::string("\x02") + "\x80" + fact_a1 + "\x80" + fact_a2;
  // a's first fact, then b's one fact (its record minus the count byte).
  const std::string mixed_record = "\x02" + fact_a1 + record_b.substr(1);
  struct Case {
    const char* name;
    std::string key;
    std::string record;
    bool ok;
  };
  const Case cases[] = {
      {"canonical", key_a, record_a, true},
      {"padded depth in the key", padded_key, padded_record, false},
      {"another version's record", key_a, record_b, false},
      {"one fact of another version", key_a, mixed_record, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FaultInjectingEnv env;
    {
      Result<std::unique_ptr<Store>> store = Store::Open("/db", &env);
      ASSERT_TRUE(store.ok());
      WriteTransaction txn = (*store)->BeginWrite();
      txn.Put("b/" + c.key, c.record);
      txn.PutMeta("generation", 1);
      ASSERT_TRUE(txn.Commit().ok());
    }
    const std::map<std::string, std::string> files = env.files();
    DatabaseOptions options;
    options.env = &env;
    Engine fresh;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", fresh, options);
    if (c.ok) {
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ((*db)->current().fact_count(), 2u);
      continue;
    }
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption)
        << db.status().ToString();
    EXPECT_EQ(env.files(), files);
  }
}

TEST_F(StorageFixture, AutoCheckpointKeepsRecoveryReplayBounded) {
  // With checkpoint_wal_bytes armed, replay work at recovery stays
  // bounded no matter how many transactions commit: every commit that
  // pushes the WAL past the threshold folds it, so a cold open replays
  // at most the last unfolded suffix.
  Counter& frames = MetricsRegistry::Global().GetCounter(
      "storage.recovery_replayed_frames");
  Counter& autos =
      MetricsRegistry::Global().GetCounter("storage.auto_checkpoints");
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.checkpoint_wal_bytes = 256;
  std::string expected;
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok());
    std::string text;
    size_t max_wal = 0;
    for (int i = 0; i < 40; ++i) {
      text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
      ASSERT_TRUE((*db)->ImportBase(Base(text.c_str(), engine)).ok());
      max_wal = std::max(max_wal, (*db)->wal_bytes_since_checkpoint());
    }
    // The WAL never accumulates past one commit beyond the threshold
    // (each commit's frame is a few hundred bytes here).
    EXPECT_LT(max_wal, options.checkpoint_wal_bytes + 2048);
    EXPECT_GT((*db)->checkpoint_generation(), 2u);
    EXPECT_GT(autos.value(), 2u);
    expected = ObjectBaseToString((*db)->current(), engine.symbols(),
                                  engine.versions());
  }
  uint64_t frames_before = frames.value();
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // 40 commits happened; recovery replays at most a couple of frames.
  EXPECT_LE(frames.value() - frames_before, 2u);
  EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                               engine.versions()),
            expected);

  // Unarmed (the default), the same workload folds nothing.
  FaultInjectingEnv manual_env;
  DatabaseOptions manual;
  manual.env = &manual_env;
  manual.retry_backoff_us = 0;
  Engine manual_engine;
  Result<std::unique_ptr<Database>> manual_db =
      Database::Open("/db", manual_engine, manual);
  ASSERT_TRUE(manual_db.ok());
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "o" + std::to_string(i) + ".m -> " + std::to_string(i) + ". ";
    ASSERT_TRUE(
        (*manual_db)->ImportBase(Base(text.c_str(), manual_engine)).ok());
  }
  EXPECT_EQ((*manual_db)->wal_records_since_checkpoint(), 10u);
  EXPECT_EQ((*manual_db)->checkpoint_generation(), 0u);
}

TEST_F(StorageFixture, LegacySnapshotDirectoryIsRefused) {
  // A directory checkpointed before the store subsystem existed holds
  // snapshot.vsnp + wal.log. Its WAL holds only the commits after that
  // checkpoint, so opening it without reading the snapshot would build a
  // state no commit produced: Open refuses before it touches any file.
  FaultInjectingEnv env;
  env.SetFileContents("/db/snapshot.vsnp", "VSNP1 checkpoint image");
  env.SetFileContents("/db/wal.log", "suffix frames");
  const auto before = env.files();
  DatabaseOptions options;
  options.env = &env;
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument)
      << db.status().ToString();
  EXPECT_EQ(env.files(), before);
}

TEST_F(StorageFixture, PageLogDirectoryIsRefused) {
  // Builds that offered a second store checkpointed into an append-only
  // page log, store.plog, and removed the WAL behind each checkpoint.
  // Opened as an empty store plus the WAL suffix, such a directory would
  // silently drop every commit folded into the log: Open refuses it
  // before it touches any file.
  FaultInjectingEnv env;
  env.SetFileContents("/db/store.plog", "page-log frames");
  env.SetFileContents("/db/wal.log", "suffix frames");
  const auto before = env.files();
  DatabaseOptions options;
  options.env = &env;
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument)
      << db.status().ToString();
  EXPECT_EQ(env.files(), before);
  EXPECT_EQ(env.mutating_ops(), 0u);
}

TEST_F(StorageFixture, GoldenDirectoryOpensToTheSameBase) {
  // store.img and wal.log as the build that also shipped a page-log store
  // wrote them at its default options: ImportBase of
  // "ann.sal -> 10. ann.boss -> bob. bob.sal -> 20. bob.isa -> mgr.",
  // "mod[bob].sal -> (X, Y) <- bob.sal -> X, Y = X + 5.", a checkpoint,
  // then "ins[cid].sal -> 7. ins[cid].boss -> ann." and
  // "del[ann].boss -> X <- ann.boss -> X." in the WAL suffix. The image
  // format and the WAL frames are unchanged, so it opens to the base that
  // build recovered.
  const std::string image(
      "\x92\x00\x00\xc0\x83\x34\x69\xad\xd8\x17\x7c\xf3\x04\x00\x08\x62"
      "\x2f\x00\x00\x03\x61\x6e\x6e\x33\x03\x00\x00\x03\x61\x6e\x6e\x06"
      "\x65\x78\x69\x73\x74\x73\x00\x00\x03\x61\x6e\x6e\x00\x00\x03\x61"
      "\x6e\x6e\x03\x73\x61\x6c\x00\x01\x14\x01\x00\x00\x03\x61\x6e\x6e"
      "\x04\x62\x6f\x73\x73\x00\x00\x03\x62\x6f\x62\x00\x08\x62\x2f\x00"
      "\x00\x03\x62\x6f\x62\x32\x03\x00\x00\x03\x62\x6f\x62\x06\x65\x78"
      "\x69\x73\x74\x73\x00\x00\x03\x62\x6f\x62\x00\x00\x03\x62\x6f\x62"
      "\x03\x73\x61\x6c\x00\x01\x32\x01\x00\x00\x03\x62\x6f\x62\x03\x69"
      "\x73\x61\x00\x00\x03\x6d\x67\x72\x02\x06\x66\x6f\x72\x6d\x61\x74"
      "\x01\x02\x0a\x67\x65\x6e\x65\x72\x61\x74\x69\x6f\x6e\x01",
      158);
  const std::string wal(
      "\x35\x00\x00\xc0\x3f\x15\xd5\x7d\xdd\x4e\xc0\x2b\x01\x03\x00\x00"
      "\x03\x63\x69\x64\x06\x65\x78\x69\x73\x74\x73\x00\x00\x03\x63\x69"
      "\x64\x00\x00\x03\x63\x69\x64\x03\x73\x61\x6c\x00\x01\x0e\x01\x00"
      "\x00\x03\x63\x69\x64\x04\x62\x6f\x73\x73\x00\x00\x03\x61\x6e\x6e"
      "\x00\x14\x00\x00\xc0\x64\xdd\x5b\x65\x37\x09\x48\xb1\x01\x00\x01"
      "\x00\x00\x03\x61\x6e\x6e\x04\x62\x6f\x73\x73\x00\x00\x03\x62\x6f"
      "\x62",
      97);
  FaultInjectingEnv env;
  env.SetFileContents("/db/store.img", image);
  env.SetFileContents("/db/wal.log", wal);
  DatabaseOptions options;
  options.env = &env;
  Engine engine;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->checkpoint_generation(), 1u);
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
  EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                               engine.versions()),
            "ann.exists -> ann.\n"
            "ann.sal -> 10.\n"
            "bob.exists -> bob.\n"
            "bob.isa -> mgr.\n"
            "bob.sal -> 25.\n"
            "cid.boss -> ann.\n"
            "cid.exists -> cid.\n"
            "cid.sal -> 7.\n");
}

TEST_F(StorageFixture, FailedProgramLeavesDatabaseUntouched) {
  std::string dbdir = dir_ + "/db3";
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(dbdir, engine);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ImportBase(Base("o.m -> a.", engine)).ok());
  // Non-linear program: Execute fails, current() unchanged.
  Result<Program> bad = ParseProgram(
      "r1: mod[o].m -> (a, b) <- o.m -> a."
      "r2: del[o].m -> a <- o.m -> a.", engine);
  ASSERT_TRUE(bad.ok());
  size_t records = (*db)->wal_records_since_checkpoint();
  Result<RunOutcome> out = (*db)->Execute(*bad);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), records);
  Vid o = engine.versions().OfOid(engine.symbols().Symbol("o"));
  GroundApp m;
  m.result = engine.symbols().Symbol("a");
  EXPECT_TRUE((*db)->current().Contains(o, engine.symbols().Method("m"), m));
}

}  // namespace
}  // namespace verso
