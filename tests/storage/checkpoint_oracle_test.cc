// Oracle for the incremental checkpoint. Checkpoint() writes only the
// versions whose state changed since the last checkpoint; a checkpoint
// that rewrites the whole base is the simpler reference. After every
// checkpoint the store's "b/" range must equal, key for key and byte for
// byte, a from-scratch encoding of current() — what the whole-base
// checkpoint stages — and the store must have put or deleted exactly the
// versions whose record changed since the last successful checkpoint.
//
// The commit sequences are seed-generated: one-object edits, edit-and-
// revert pairs (a revert's state equals the checkpointed one by value but
// is another object), object creation and deletion (so store keys get
// deleted), ExecuteBatch groups, reopens between checkpoints, and
// checkpoints whose store commit fails under an injected I/O fault,
// followed by one that succeeds. A checkpoint with nothing to write
// makes no store commit, unless the last one failed: it removes the WAL
// and keeps the generation, which counts store commits.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pretty.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;
using OpFilter = FaultInjectingEnv::OpFilter;
/// Store key -> record bytes.
using Records = std::map<std::string, std::string>;

constexpr int kObjects = 12;
constexpr int kSteps = 90;
constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};

/// Deterministic PRNG, so a failing seed replays exactly.
struct Lcg {
  uint64_t state;
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

/// The "b/" range a whole-base checkpoint of `base` stages.
Records FromScratch(const ObjectBase& base, Engine& engine) {
  Records records;
  for (const auto& [vid, state] : base.versions()) {
    records.emplace(
        "b/" + EncodeVersionKey(vid, engine.symbols(), engine.versions()),
        EncodeVersionRecord(vid, *state, engine.symbols(), engine.versions()));
  }
  return records;
}

Records Stored(const Store& store) {
  Records records;
  Status scanned =
      store.Scan("b/", [&](std::string_view key, std::string_view value) {
        records.emplace(key, value);
        return Status::Ok();
      });
  EXPECT_TRUE(scanned.ok()) << scanned.ToString();
  return records;
}

/// Keys held by one side only, or with other bytes on each side.
size_t ChangedKeys(const Records& a, const Records& b) {
  size_t changed = 0;
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    if (it == b.end() || it->second != value) ++changed;
  }
  for (const auto& [key, value] : b) changed += a.count(key) == 0 ? 1 : 0;
  return changed;
}

/// What the generated sequences reached, summed over every run, so the
/// test fails if a change to the generator stops exercising a case.
struct Coverage {
  uint64_t checkpoints = 0;
  uint64_t failed_checkpoints = 0;
  /// Checkpoints with no version to write (no store commit).
  uint64_t noop_checkpoints = 0;
  uint64_t reopens = 0;
  uint64_t batches = 0;
  uint64_t deletes = 0;
  /// Versions rebuilt since the last checkpoint into an equal state.
  uint64_t equal_by_value = 0;
};

/// Writes a seed-generated commit sequence and checks the store after
/// every checkpoint.
class CheckpointOracle {
 public:
  CheckpointOracle(uint64_t seed, Coverage& coverage)
      : rng_{seed * 2 + 1}, coverage_(coverage) {
    options_.env = &env_;
    options_.retry_backoff_us = 0;
  }

  void Run() {
    Reopen();
    for (int step = 0; step < kSteps && !::testing::Test::HasFailure();
         ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint32_t roll = rng_.Next(100);
      if (roll < 30) {
        Commit({Edit()});
      } else if (roll < 42) {
        // Edit and revert: the object's state ends equal to what it was,
        // through two commits that each rebuild it.
        const int obj = LiveObject();
        if (obj < 0) continue;
        const int by = 1 + static_cast<int>(rng_.Next(9));
        Commit({Bump(obj, by)});
        Commit({Bump(obj, -by)});
      } else if (roll < 52) {
        Commit({Create()});
      } else if (roll < 60) {
        Commit({Delete()});
      } else if (roll < 70) {
        std::vector<std::string> group;
        const uint32_t size = 2 + rng_.Next(3);
        for (uint32_t i = 0; i < size; ++i) group.push_back(Edit());
        Commit(group);
      } else if (roll < 80) {
        CheckpointAndCheck();
      } else if (roll < 88) {
        // A failed checkpoint, then one that succeeds. Half the time an
        // edit the failed one staged is reverted in between, so a store
        // that kept the failed commit's record would read stale.
        const int obj = LiveObject();
        const int by = 1 + static_cast<int>(rng_.Next(9));
        const bool revert = obj >= 0 && rng_.Next(2) == 0;
        if (revert) Commit({Bump(obj, by)});
        FailCheckpoint();
        if (revert) Commit({Bump(obj, -by)});
        CheckpointAndCheck();
      } else if (roll < 94) {
        Reopen();
      } else {
        Commit({Edit()});
      }
    }
    CheckpointAndCheck();
    // A fresh engine decodes the same base from the store.
    const std::string before = Render(db_->current(), *engine_);
    db_.reset();
    Engine fresh;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", fresh, options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(Render((*db)->current(), fresh), before);
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
  }

 private:
  static std::string Render(const ObjectBase& base, Engine& engine) {
    return ObjectBaseToString(base, engine.symbols(), engine.versions());
  }

  static std::string Name(int obj) { return "o" + std::to_string(obj); }

  /// A live object, or -1 when there is none.
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
    return "t: ins[" + Name(obj) + "].v -> " +
           std::to_string(rng_.Next(50)) + ".";
  }

  /// Removes an object's only remaining method, so the object — and its
  /// store key — goes away; an object that still has `w` loses that first.
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

  /// A one-object edit: bump `v`, or add or drop a second method.
  std::string Edit() {
    const int obj = LiveObject();
    if (obj < 0) return Create();
    const std::string o = Name(obj);
    switch (rng_.Next(3)) {
      case 0:
        if (!has_w_[obj]) {
          has_w_[obj] = true;
          return "t: ins[" + o + "].w -> " + std::to_string(rng_.Next(50)) +
                 ".";
        }
        has_w_[obj] = false;
        return "t: del[" + o + "].w -> X <- " + o + ".w -> X.";
      default:
        return Bump(obj, 1 + static_cast<int>(rng_.Next(9)));
    }
  }

  /// Commits `sources` as one Execute, or as one ExecuteBatch group.
  void Commit(const std::vector<std::string>& sources) {
    std::vector<Program> programs;
    for (const std::string& source : sources) {
      Result<Program> program = ParseProgram(source, *engine_);
      ASSERT_TRUE(program.ok()) << source << ": "
                                << program.status().ToString();
      programs.push_back(std::move(program).value());
    }
    if (programs.size() == 1) {
      Result<RunOutcome> out = db_->Execute(programs[0]);
      ASSERT_TRUE(out.ok()) << sources[0] << ": " << out.status().ToString();
      return;
    }
    std::vector<Program*> group;
    for (Program& program : programs) group.push_back(&program);
    Result<std::vector<RunOutcome>> out = db_->ExecuteBatch(group);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ++coverage_.batches;
  }

  void Reopen() {
    std::string before;
    if (db_ != nullptr) before = Render(db_->current(), *engine_);
    db_.reset();
    if (engine_ == nullptr) {
      engine_ = std::make_unique<Engine>();
      checkpointed_base_.emplace(engine_->MakeBase());
    }
    // The same engine, so a record's bytes stay comparable across the
    // reopen (records list facts in the engine's interning order).
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", *engine_, options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    if (!before.empty()) {
      EXPECT_EQ(Render(db_->current(), *engine_), before);
      ++coverage_.reopens;
    }
  }

  void CheckpointAndCheck() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    const uint64_t puts = registry.GetCounter("store.puts").value();
    const uint64_t deletes = registry.GetCounter("store.deletes").value();
    const uint64_t generation = db_->checkpoint_generation();
    const Records expected = FromScratch(db_->current(), *engine_);
    const size_t changed = ChangedKeys(checkpointed_, expected);
    // The generation counts store commits: one iff a record changed or
    // the last store commit failed (its file may hold what it refused).
    const bool commits = changed > 0 || after_failure_;
    Status status = db_->Checkpoint();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(db_->checkpoint_generation(), generation + commits);
    EXPECT_FALSE(env_.FileExists("/db/wal.log"));
    EXPECT_EQ(Stored(*db_->store()), expected);
    // The store's file reads back the same records.
    std::unique_ptr<FaultInjectingEnv> disk = env_.CloneSurvivingFiles();
    Result<std::unique_ptr<Store>> reread = Store::Open("/db", disk.get());
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_EQ(Stored(**reread), expected);
    EXPECT_EQ(registry.GetCounter("store.puts").value() - puts +
                  registry.GetCounter("store.deletes").value() - deletes,
              changed);
    ++coverage_.checkpoints;
    if (!commits) ++coverage_.noop_checkpoints;
    after_failure_ = false;
    coverage_.deletes += registry.GetCounter("store.deletes").value() - deletes;
    ObjectBase::VersionMap::Diff(
        checkpointed_base_->versions(), db_->current().versions(),
        [&](Vid, const ObjectBase::StatePtr* was,
            const ObjectBase::StatePtr* now) {
          if (was != nullptr && now != nullptr && **was == **now) {
            ++coverage_.equal_by_value;
          }
          return true;
        });
    checkpointed_ = expected;
    checkpointed_base_.emplace(db_->current());
  }

  /// A checkpoint whose store commit fails at one of its own I/O points:
  /// it reports the error, the store keeps the last checkpoint, and the
  /// database stays healthy with its WAL in place. With no record to
  /// write there is no store commit to fail: the checkpoint succeeds
  /// without reaching the fault, removes the WAL and touches no record.
  void FailCheckpoint() {
    struct Point {
      OpFilter filter;
      uint64_t nth;
      size_t partial;
    };
    static const Point kPoints[] = {
        {OpFilter::kWrite, 0, 0},   {OpFilter::kWrite, 0, 5},
        {OpFilter::kSync, 0, 0},    {OpFilter::kRename, 0, 0},
        {OpFilter::kRename, 0, 1},  {OpFilter::kSync, 1, 0},
    };
    const Point& point = kPoints[rng_.Next(std::size(kPoints))];
    const size_t records = db_->wal_records_since_checkpoint();
    const uint64_t generation = db_->checkpoint_generation();
    FaultInjectingEnv::FaultPlan plan;
    plan.fail_at = point.nth;
    plan.kind = FaultKind::kEio;
    plan.partial_bytes = point.partial;
    plan.filter = point.filter;
    const bool noop =
        !after_failure_ &&
        ChangedKeys(checkpointed_, FromScratch(db_->current(), *engine_)) == 0;
    env_.SetPlan(plan);
    Status status = db_->Checkpoint();
    const uint32_t faults = env_.faults_hit();
    env_.Disarm();
    EXPECT_TRUE(db_->health().ok());
    EXPECT_EQ(db_->checkpoint_generation(), generation);
    EXPECT_EQ(Stored(*db_->store()), checkpointed_);
    if (noop) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(faults, 0u);
      EXPECT_EQ(db_->wal_records_since_checkpoint(), 0u);
      EXPECT_FALSE(env_.FileExists("/db/wal.log"));
      checkpointed_base_.emplace(db_->current());
      ++coverage_.noop_checkpoints;
      return;
    }
    after_failure_ = true;
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(db_->wal_records_since_checkpoint(), records);
    EXPECT_EQ(env_.FileExists("/db/wal.log"), records > 0);
    ++coverage_.failed_checkpoints;
  }

  Lcg rng_;
  FaultInjectingEnv env_;
  DatabaseOptions options_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Database> db_;
  Coverage& coverage_;
  /// The from-scratch encoding at the last successful checkpoint, and
  /// the base it encodes (an empty one until then).
  Records checkpointed_;
  std::optional<ObjectBase> checkpointed_base_;
  /// True from a failed checkpoint to the next successful one.
  bool after_failure_ = false;
  bool live_[kObjects] = {};
  bool has_w_[kObjects] = {};
};

TEST(CheckpointOracleTest, StoreEqualsAFromScratchEncodingAfterEveryCheckpoint) {
  Coverage coverage;
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckpointOracle(seed, coverage).Run();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(coverage.checkpoints, 0u);
  EXPECT_GT(coverage.failed_checkpoints, 0u);
  EXPECT_GT(coverage.noop_checkpoints, 0u);
  EXPECT_GT(coverage.reopens, 0u);
  EXPECT_GT(coverage.batches, 0u);
  EXPECT_GT(coverage.deletes, 0u);
  EXPECT_GT(coverage.equal_by_value, 0u);
  std::printf("%llu checkpoints (%llu failed first, %llu with nothing to "
              "write), %llu reopens, %llu batches, %llu deletes, %llu "
              "equal-by-value rebuilds\n",
              static_cast<unsigned long long>(coverage.checkpoints),
              static_cast<unsigned long long>(coverage.failed_checkpoints),
              static_cast<unsigned long long>(coverage.noop_checkpoints),
              static_cast<unsigned long long>(coverage.reopens),
              static_cast<unsigned long long>(coverage.batches),
              static_cast<unsigned long long>(coverage.deletes),
              static_cast<unsigned long long>(coverage.equal_by_value));
}

}  // namespace
}  // namespace verso
