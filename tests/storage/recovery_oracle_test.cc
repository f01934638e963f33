// Oracle for bulk recovery. Database::Open builds each stored version's
// state from its record and adopts it whole, then replays the WAL suffix
// as one net delta: each distinct fact image decoded once, its last
// operation applied, in last-occurrence order (ReplayDeltaBatches). The
// reference is the fact-by-fact recovery: every stored fact decoded with
// DecodeFact and inserted, every frame decoded with DecodeDeltaBatch and
// applied with ApplyDelta. Both run in a fresh engine over the same bytes
// and must agree on success, on the recovered base, and on the ids the
// engine handed out (the order of query rows follows them).
//
// The inputs:
//   * seed-generated histories: one-object edits, edit-and-revert
//     pairs, creates and deletes, ExecuteBatch groups that remove a fact
//     and add it back, checkpoints, reopens, and crash-window frames the
//     store already folds (the WAL a checkpoint crashed before removing);
//   * hand-built frames that spell one fact several ways (a padded
//     varint, a number as 2/2), so the order in which the net replay
//     applies its survivors decides the result;
//   * a byte-mutation sweep over stored records and WAL payloads: seeded
//     bit flips, truncations and insertions. Nothing may crash, and the
//     two recoveries must agree.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pretty.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "store/store.h"
#include "util/fault_env.h"

namespace verso {
namespace {

constexpr char kDir[] = "/db";
constexpr char kWal[] = "/db/wal.log";

/// Deterministic PRNG, so a failing seed replays exactly.
struct Lcg {
  uint64_t state;
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

/// One recovery, in terms that compare across engines.
struct Recovered {
  Status status;
  /// ObjectBaseToString of the recovered base.
  std::string base;
  /// Every Oid, Vid and method name the engine holds, in id order.
  std::string ids;
};

std::string Ids(const Engine& engine) {
  const SymbolTable& symbols = engine.symbols();
  std::string out;
  for (uint32_t i = 0; i < symbols.oid_count(); ++i) {
    out += symbols.OidToString(Oid(i)) + " ";
  }
  out += "| ";
  for (uint32_t i = 0; i < engine.versions().size(); ++i) {
    out += engine.versions().ToString(Vid(i), symbols) + " ";
  }
  out += "| ";
  for (uint32_t i = 0; i < symbols.method_count(); ++i) {
    out += std::string(symbols.MethodName(MethodId(i))) + " ";
  }
  return out;
}

Recovered Done(const ObjectBase& base, const Engine& engine) {
  return {Status::Ok(),
          ObjectBaseToString(base, engine.symbols(), engine.versions()),
          Ids(engine)};
}

/// Loads one stored record fact by fact: the key must name its version
/// canonically and every fact must lead with the key's bytes.
Status InsertRecord(std::string_view key, std::string_view value,
                    Engine& engine, ObjectBase& base) {
  FactDecoder decoder(engine.symbols(), engine.versions());
  VERSO_RETURN_IF_ERROR(DecodeVersionKey(key, decoder).status());
  BufferReader reader(value);
  VERSO_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  for (uint64_t i = 0; i < count; ++i) {
    if (value.substr(reader.position()).substr(0, key.size()) != key) {
      return Status::Corruption("record holds another version's fact");
    }
    VERSO_ASSIGN_OR_RETURN(
        DecodedFact fact,
        DecodeFact(reader, engine.symbols(), engine.versions()));
    base.Insert(fact.vid, fact.method, std::move(fact.app));
  }
  if (!reader.AtEnd()) return Status::Corruption("record trailing bytes");
  return Status::Ok();
}

/// The reference: fact-by-fact recovery of the directory in `env`.
Recovered FactByFact(const FaultInjectingEnv& disk) {
  std::unique_ptr<FaultInjectingEnv> env = disk.CloneSurvivingFiles();
  Engine engine;
  ObjectBase base = engine.MakeBase();
  Result<std::unique_ptr<Store>> store = Store::Open(kDir, env.get());
  if (!store.ok()) return {store.status(), "", ""};
  if ((*store)->GetMeta("generation").ok()) {
    Status scanned = (*store)->Scan(
        "b/", [&](std::string_view key, std::string_view value) {
          return InsertRecord(key.substr(2), value, engine, base);
        });
    if (!scanned.ok()) return {scanned, "", ""};
  }
  Result<WalReadResult> wal = ReadWal(kWal, env.get());
  if (!wal.ok()) return {wal.status(), "", ""};
  for (const std::string& payload : wal->records) {
    Result<std::vector<FactDelta>> deltas =
        DecodeDeltaBatch(payload, engine.symbols(), engine.versions());
    if (!deltas.ok()) return {deltas.status(), "", ""};
    for (const FactDelta& delta : *deltas) ApplyDelta(delta, base);
  }
  return Done(base, engine);
}

/// The path under test: Database::Open of the same bytes.
Recovered Bulk(const FaultInjectingEnv& disk) {
  std::unique_ptr<FaultInjectingEnv> env = disk.CloneSurvivingFiles();
  DatabaseOptions options;
  options.env = env.get();
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(kDir, engine, options);
  if (!db.ok()) return {db.status(), "", ""};
  return Done((*db)->current(), engine);
}

/// Both recoveries of `disk`; returns the bulk one after checking they
/// agree.
Recovered RecoverBothWays(const FaultInjectingEnv& disk) {
  const Recovered reference = FactByFact(disk);
  const Recovered bulk = Bulk(disk);
  EXPECT_EQ(bulk.status.ok(), reference.status.ok())
      << "bulk: " << bulk.status.ToString()
      << "\nfact by fact: " << reference.status.ToString();
  if (bulk.status.ok() && reference.status.ok()) {
    EXPECT_EQ(bulk.base, reference.base);
    EXPECT_EQ(bulk.ids, reference.ids);
  }
  return bulk;
}

// ---- generated histories ----------------------------------------------------

constexpr int kObjects = 10;
constexpr int kSteps = 80;
constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};

/// What the generated histories reached, summed over every run, so the
/// test fails if a change to the generator stops exercising a case.
struct Coverage {
  uint64_t recoveries = 0;
  uint64_t crash_windows = 0;
  uint64_t readd_groups = 0;
  /// Recoveries whose WAL suffix logged some fact image more than once.
  uint64_t netted = 0;
};

class HistoryOracle {
 public:
  HistoryOracle(uint64_t seed, Coverage& coverage)
      : rng_{seed * 2 + 1}, coverage_(coverage) {
    options_.env = &env_;
    options_.retry_backoff_us = 0;
  }

  void Run() {
    Open();
    for (int step = 0; step < kSteps && !::testing::Test::HasFailure();
         ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint32_t roll = rng_.Next(100);
      if (roll < 25) {
        Commit({Edit()});
      } else if (roll < 37) {
        // Edit and revert, as two frames.
        const int obj = LiveObject();
        if (obj < 0) continue;
        const int by = 1 + static_cast<int>(rng_.Next(9));
        Commit({Bump(obj, by)});
        Commit({Bump(obj, -by)});
      } else if (roll < 47) {
        Commit({Create()});
      } else if (roll < 55) {
        Commit({Delete()});
      } else if (roll < 65) {
        // One frame whose transactions remove a fact and add it back.
        const int obj = LiveObject();
        if (obj < 0) continue;
        const int by = 1 + static_cast<int>(rng_.Next(9));
        Commit({Bump(obj, by), Edit(), Bump(obj, -by)});
        ++coverage_.readd_groups;
      } else if (roll < 72) {
        std::vector<std::string> group;
        const uint32_t size = 2 + rng_.Next(3);
        for (uint32_t i = 0; i < size; ++i) group.push_back(Edit());
        Commit(group);
      } else if (roll < 80) {
        ASSERT_TRUE(db_->Checkpoint().ok());
      } else if (roll < 86) {
        CrashWindow();
      } else {
        Check();
      }
    }
    Check();
  }

 private:
  static std::string Name(int obj) { return "o" + std::to_string(obj); }

  int LiveObject() {
    std::vector<int> live;
    for (int i = 0; i < kObjects; ++i) {
      if (live_[i]) live.push_back(i);
    }
    if (live.empty()) return -1;
    return live[rng_.Next(static_cast<uint32_t>(live.size()))];
  }

  std::string Bump(int obj, int by) {
    const std::string o = Name(obj);
    return "t: mod[" + o + "].v -> (X, Y) <- " + o + ".v -> X, Y = X + " +
           std::to_string(by) + ".";
  }

  std::string Create() {
    std::vector<int> dead;
    for (int i = 0; i < kObjects; ++i) {
      if (!live_[i]) dead.push_back(i);
    }
    if (dead.empty()) return Edit();
    const int obj = dead[rng_.Next(static_cast<uint32_t>(dead.size()))];
    live_[obj] = true;
    return "t: ins[" + Name(obj) + "].v -> " + std::to_string(rng_.Next(9)) +
           ".";
  }

  std::string Delete() {
    const int obj = LiveObject();
    if (obj < 0) return Create();
    const std::string o = Name(obj);
    if (has_w_[obj]) {
      has_w_[obj] = false;
      return "t: del[" + o + "].w -> X <- " + o + ".w -> X.";
    }
    live_[obj] = false;
    return "t: del[" + o + "].v -> X <- " + o + ".v -> X.";
  }

  std::string Edit() {
    const int obj = LiveObject();
    if (obj < 0) return Create();
    const std::string o = Name(obj);
    if (rng_.Next(3) == 0) {
      if (!has_w_[obj]) {
        has_w_[obj] = true;
        return "t: ins[" + o + "].w -> " + std::to_string(rng_.Next(4)) + ".";
      }
      has_w_[obj] = false;
      return "t: del[" + o + "].w -> X <- " + o + ".w -> X.";
    }
    return Bump(obj, 1 + static_cast<int>(rng_.Next(9)));
  }

  void Commit(const std::vector<std::string>& sources) {
    std::vector<Program> programs;
    for (const std::string& source : sources) {
      Result<Program> program = ParseProgram(source, *engine_);
      ASSERT_TRUE(program.ok()) << source << ": "
                                << program.status().ToString();
      programs.push_back(std::move(program).value());
    }
    std::vector<Program*> group;
    for (Program& program : programs) group.push_back(&program);
    Result<std::vector<RunOutcome>> out = db_->ExecuteBatch(group);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }

  void Open() {
    engine_ = std::make_unique<Engine>();
    Result<std::unique_ptr<Database>> db =
        Database::Open(kDir, *engine_, options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  /// Closes the database, recovers its directory both ways, checks both
  /// against the base it held, and reopens it.
  void Check() {
    const std::string model =
        ObjectBaseToString(db_->current(), engine_->symbols(),
                           engine_->versions());
    db_.reset();
    Result<WalReadResult> wal = ReadWal(kWal, &env_);
    ASSERT_TRUE(wal.ok());
    if (Repeats(wal->records)) ++coverage_.netted;
    const Recovered bulk = RecoverBothWays(env_);
    ASSERT_TRUE(bulk.status.ok()) << bulk.status.ToString();
    EXPECT_EQ(bulk.base, model);
    ++coverage_.recoveries;
    Open();
  }

  /// A checkpoint that crashed after its store commit, before removing
  /// the WAL: the store already folds every frame the WAL still holds.
  void CrashWindow() {
    Result<WalReadResult> before = ReadWal(kWal, &env_);
    ASSERT_TRUE(before.ok());
    if (before->records.empty()) return;
    const std::string wal = env_.files().at(kWal);
    ASSERT_TRUE(db_->Checkpoint().ok());
    db_.reset();
    env_.SetFileContents(kWal, wal);
    ++coverage_.crash_windows;
    Open();
    Check();
  }

  /// True iff some fact image is logged more than once in `payloads`.
  bool Repeats(const std::vector<std::string>& payloads) {
    Engine engine;
    std::map<std::string, int> seen;
    for (const std::string& payload : payloads) {
      Result<std::vector<FactDelta>> deltas = DecodeDeltaBatch(
          payload, engine.symbols(), engine.versions());
      if (!deltas.ok()) return false;
      for (const FactDelta& delta : *deltas) {
        for (const auto* facts : {&delta.added, &delta.removed}) {
          for (const DecodedFact& fact : *facts) {
            BufferWriter writer;
            EncodeFact(writer, fact.vid, fact.method, fact.app,
                       engine.symbols(), engine.versions());
            if (++seen[writer.Take()] > 1) return true;
          }
        }
      }
    }
    return false;
  }

  Lcg rng_;
  Coverage& coverage_;
  FaultInjectingEnv env_;
  DatabaseOptions options_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Database> db_;
  bool live_[kObjects] = {};
  bool has_w_[kObjects] = {};
};

TEST(RecoveryOracleTest, GeneratedHistoriesRecoverAsFactByFactReplay) {
  Coverage coverage;
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    HistoryOracle(seed, coverage).Run();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(coverage.recoveries, 0u);
  EXPECT_GT(coverage.crash_windows, 0u);
  EXPECT_GT(coverage.readd_groups, 0u);
  EXPECT_GT(coverage.netted, 0u);
  std::printf("%llu recoveries (%llu with repeated facts), %llu crash "
              "windows, %llu remove-and-re-add groups\n",
              static_cast<unsigned long long>(coverage.recoveries),
              static_cast<unsigned long long>(coverage.netted),
              static_cast<unsigned long long>(coverage.crash_windows),
              static_cast<unsigned long long>(coverage.readd_groups));
}

// ---- one fact, several spellings -------------------------------------------

/// How a hand-built image spells `o.v -> value`: the canonical image
/// pads nothing and stores the number as value/1.
struct Spelling {
  bool pad_depth = false;
  bool pad_method = false;
  int64_t scale = 1;  // the number is stored as (value*scale)/scale
};

std::string Spell(int obj, int64_t value, const Spelling& spelling) {
  BufferWriter writer;
  if (spelling.pad_depth) {
    writer.Byte(0x80);  // depth 0 as a two-byte varint
    writer.Byte(0x00);
  } else {
    writer.Varint(0);
  }
  writer.Byte(0);  // symbol tag
  writer.Str("o" + std::to_string(obj));
  if (spelling.pad_method) {
    writer.Byte(0x81);  // length 1 as a two-byte varint
    writer.Byte(0x00);
    writer.Byte('v');
  } else {
    writer.Str("v");
  }
  writer.Varint(0);  // no arguments
  writer.Byte(1);    // number tag
  writer.ZigZag(value * spelling.scale);
  writer.Varint(static_cast<uint64_t>(spelling.scale));
  return writer.Take();
}

struct Txn {
  std::vector<std::string> added;
  std::vector<std::string> removed;
};

std::string Payload(const std::vector<Txn>& txns) {
  BufferWriter writer;
  writer.Varint(txns.size());
  for (const Txn& txn : txns) {
    for (const auto* images : {&txn.added, &txn.removed}) {
      writer.Varint(images->size());
      for (const std::string& image : *images) {
        for (char c : image) writer.Byte(static_cast<uint8_t>(c));
      }
    }
  }
  return writer.Take();
}

TEST(RecoveryOracleTest, OneFactSpelledSeveralWaysEndsAtItsLastOperation) {
  constexpr int kFacts = 24;
  const Spelling kSpellings[] = {
      {}, {true, false, 1}, {false, true, 1}, {false, false, 2},
      {true, true, 3}};
  uint64_t cases = 0;
  uint64_t mixed_txns = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Lcg rng{seed * 7 + 3};
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    // The checkpointed base holds some of the facts.
    bool present[kFacts] = {};
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open(kDir, engine, options);
      ASSERT_TRUE(db.ok());
      ObjectBase base = engine.MakeBase();
      for (int i = 0; i < kFacts; ++i) {
        present[i] = rng.Next(2) == 0;
        engine.AddFact(base, "keep" + std::to_string(i), "v",
                       static_cast<int64_t>(i));
        if (present[i]) {
          engine.AddFact(base, "o" + std::to_string(i), "v",
                         static_cast<int64_t>(1 + i % 5));
        }
      }
      ASSERT_TRUE((*db)->ImportBase(base).ok());
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
    // Frames of transactions that add and remove the facts under
    // random spellings; the model applies each transaction's removals,
    // then its additions.
    std::string wal;
    for (int frame = 0; frame < 4; ++frame) {
      std::vector<Txn> txns(1 + rng.Next(3));
      for (Txn& txn : txns) {
        for (int i = 0; i < kFacts; ++i) {
          const uint32_t roll = rng.Next(6);
          if (roll >= 3) continue;
          const int64_t value = 1 + i % 5;
          const Spelling& a = kSpellings[rng.Next(5)];
          const Spelling& b = kSpellings[rng.Next(5)];
          if (roll == 0) {
            txn.added.push_back(Spell(i, value, a));
            present[i] = true;
          } else if (roll == 1) {
            txn.removed.push_back(Spell(i, value, a));
            present[i] = false;
          } else {
            // Both in one transaction: the addition wins.
            txn.removed.push_back(Spell(i, value, a));
            txn.added.push_back(Spell(i, value, b));
            present[i] = true;
            ++mixed_txns;
          }
        }
      }
      Result<std::string> framed = EncodeWalFrame(Payload(txns));
      ASSERT_TRUE(framed.ok());
      wal += *framed;
    }
    env.SetFileContents(kWal, wal);

    const Recovered bulk = RecoverBothWays(env);
    ASSERT_TRUE(bulk.status.ok()) << bulk.status.ToString();
    Engine engine;
    ObjectBase expected = engine.MakeBase();
    for (int i = 0; i < kFacts; ++i) {
      engine.AddFact(expected, "keep" + std::to_string(i), "v",
                     static_cast<int64_t>(i));
      if (present[i]) {
        engine.AddFact(expected, "o" + std::to_string(i), "v",
                       static_cast<int64_t>(1 + i % 5));
      }
    }
    EXPECT_EQ(bulk.base, ObjectBaseToString(expected, engine.symbols(),
                                            engine.versions()));
    ++cases;
  }
  EXPECT_GT(mixed_txns, 0u);
  std::printf("%llu directories, %llu transactions removing and adding one "
              "fact under two spellings\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(mixed_txns));
}

// ---- byte mutations ---------------------------------------------------------

/// A directory's contents as recovery reads them.
struct Contents {
  std::map<std::string, std::string> records;  // store key -> record
  std::vector<std::string> payloads;           // WAL frames, in order
};

/// A checkpointed base of a few objects plus a WAL suffix of several
/// frames, one of them an ExecuteBatch group.
Contents BuildContents() {
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(kDir, engine, options);
  EXPECT_TRUE(db.ok());
  Result<ObjectBase> base = ParseObjectBase(
      "a.v -> 1. a.w -> x. b.v -> 2. b.at@1,\"s\" -> -3.5. c.v -> 3. "
      "mod(f).v -> 4. d.v -> \"t\".",
      engine);
  EXPECT_TRUE(base.ok());
  EXPECT_TRUE((*db)->ImportBase(*base).ok());
  EXPECT_TRUE((*db)->Checkpoint().ok());
  const char* kSources[] = {
      "t: mod[a].v -> (X, Y) <- a.v -> X, Y = X + 1.",
      "t: ins[e].v -> 7.",
      "t: del[b].v -> X <- b.v -> X.",
      "t: mod[a].v -> (X, Y) <- a.v -> X, Y = X - 1.",
  };
  for (const char* source : kSources) {
    Result<Program> program = ParseProgram(source, engine);
    EXPECT_TRUE(program.ok());
    EXPECT_TRUE((*db)->Execute(*program).ok());
  }
  Result<Program> up =
      ParseProgram("t: mod[c].v -> (X, Y) <- c.v -> X, Y = X * 3.", engine);
  Result<Program> down =
      ParseProgram("t: mod[c].v -> (X, Y) <- c.v -> X, Y = X / 3.", engine);
  EXPECT_TRUE(up.ok() && down.ok());
  EXPECT_TRUE((*db)->ExecuteBatch({&*up, &*down, &*up}).ok());
  Contents image;
  Status scanned = (*db)->store()->Scan(
      "b/", [&](std::string_view key, std::string_view value) {
        image.records.emplace(key, value);
        return Status::Ok();
      });
  EXPECT_TRUE(scanned.ok());
  Result<WalReadResult> wal = ReadWal(kWal, &env);
  EXPECT_TRUE(wal.ok());
  image.payloads = wal->records;
  return image;
}

/// Writes `image` as a fresh directory: one store commit, one WAL frame
/// per payload (so every payload reaches its decoder).
std::unique_ptr<FaultInjectingEnv> WriteContents(const Contents& image) {
  auto env = std::make_unique<FaultInjectingEnv>();
  Result<std::unique_ptr<Store>> store = Store::Open(kDir, env.get());
  EXPECT_TRUE(store.ok());
  WriteTransaction txn = (*store)->BeginWrite();
  for (const auto& [key, value] : image.records) txn.Put(key, value);
  txn.PutMeta("generation", 1);
  EXPECT_TRUE(txn.Commit().ok());
  std::string wal;
  for (const std::string& payload : image.payloads) {
    Result<std::string> framed = EncodeWalFrame(payload);
    EXPECT_TRUE(framed.ok());
    wal += *framed;
  }
  env->SetFileContents(kWal, wal);
  return env;
}

/// One seeded mutation of `bytes`: a bit flip, a truncation, or an
/// inserted byte. Returns false when `bytes` is too short to mutate.
bool Mutate(std::string& bytes, Lcg& rng) {
  switch (rng.Next(3)) {
    case 0:
      if (bytes.empty()) return false;
      bytes[rng.Next(static_cast<uint32_t>(bytes.size()))] ^=
          static_cast<char>(1u << rng.Next(8));
      return true;
    case 1:
      if (bytes.empty()) return false;
      bytes.resize(rng.Next(static_cast<uint32_t>(bytes.size())));
      return true;
    default:
      bytes.insert(bytes.begin() + rng.Next(static_cast<uint32_t>(
                                       bytes.size() + 1)),
                   static_cast<char>(rng.Next(256)));
      return true;
  }
}

TEST(RecoveryOracleTest, ByteMutationsRecoverAsTheFactByFactReplayDoes) {
  constexpr int kTrials = 600;
  const Contents original = BuildContents();
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GE(original.records.size(), 5u);
  ASSERT_GE(original.payloads.size(), 5u);
  Lcg rng{11};
  uint64_t failed = 0;
  uint64_t recovered = 0;
  uint64_t changed = 0;
  const std::string pristine = Bulk(*WriteContents(original)).base;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Contents image = original;
    const uint32_t target = rng.Next(10);
    if (target < 5) {
      std::string& payload = image.payloads[rng.Next(
          static_cast<uint32_t>(image.payloads.size()))];
      if (!Mutate(payload, rng)) continue;
    } else {
      auto it = image.records.begin();
      std::advance(it, rng.Next(static_cast<uint32_t>(image.records.size())));
      if (target < 9) {
        if (!Mutate(it->second, rng)) continue;
      } else {
        // The key after its "b/" prefix.
        std::string key = it->first.substr(2);
        const std::string value = it->second;
        if (!Mutate(key, rng)) continue;
        image.records.erase(it);
        image.records["b/" + key] = value;
      }
    }
    const Recovered bulk = RecoverBothWays(*WriteContents(image));
    if (::testing::Test::HasFailure()) return;
    if (!bulk.status.ok()) {
      ++failed;
    } else {
      ++recovered;
      if (bulk.base != pristine) ++changed;
    }
  }
  // The sweep reaches both outcomes, and mutations that decode to
  // another base.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(changed, 0u);
  std::printf("%llu mutations refused by both, %llu recovered by both "
              "(%llu to another base)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(recovered),
              static_cast<unsigned long long>(changed));
}

}  // namespace
}  // namespace verso
