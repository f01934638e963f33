// Crash-recovery torture harness: a randomized workload runs against a
// FaultInjectingEnv, a crash is injected at EVERY mutating I/O point (and
// at every WAL byte-prefix), the database is reopened from the surviving
// disk image, and the recovered state — committed base, view results,
// subscription replay — must equal EXACTLY the state after some prefix of
// the committed transactions (atomicity), with that prefix covering every
// acknowledged commit (durability). Mid-Checkpoint crashes are part of
// the sweep: the workload checkpoints halfway through.
//
// Scaling knobs (environment variables, for CI sampling vs exhaustive
// local runs — see .github/workflows/ci.yml):
//   VERSO_TORTURE_SEED           workload seed            (default 12345)
//   VERSO_TORTURE_OP_STRIDE      crash-op sampling stride (default 1)
//   VERSO_TORTURE_PREFIX_STRIDE  WAL byte-prefix stride   (default 1)

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "core/pretty.h"
#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;

constexpr const char* kDir = "/db";
constexpr const char* kViewDdl =
    "CREATE VIEW rich AS derive X.rich -> yes <- X.sal -> S, S > 1000.";

uint64_t EnvKnob(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  return (end != value && parsed > 0) ? parsed : fallback;
}

/// Deterministic PRNG (the harness must replay byte-identically for a
/// given seed — std::rand and friends are off the table).
struct Lcg {
  uint64_t state;
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

/// A seed-derived transaction script over a handful of objects: inserts,
/// salary bumps crossing the view threshold, and deletes. del on a
/// since-deleted object is a deliberate no-op transaction (commits no WAL
/// record), so the expected-state sequence contains equal neighbors —
/// recovery must cope with that too.
std::vector<std::string> MakeWorkload(uint64_t seed) {
  Lcg rng{seed * 2 + 1};
  std::vector<std::string> txns;
  std::vector<int> live;
  int next_obj = 0;
  constexpr int kTxns = 12;
  for (int i = 0; i < kTxns; ++i) {
    uint32_t kind = live.empty() ? 0 : rng.Next(4);
    if (kind <= 1) {  // insert a fresh object
      int obj = next_obj++;
      int sal = 500 + 700 * static_cast<int>(rng.Next(4));  // straddles 1000
      txns.push_back("t: ins[o" + std::to_string(obj) + "].sal -> " +
                     std::to_string(sal) + ".");
      live.push_back(obj);
    } else if (kind == 2) {  // bump an existing object's salary
      int obj = live[rng.Next(static_cast<uint32_t>(live.size()))];
      txns.push_back("t: mod[o" + std::to_string(obj) +
                     "].sal -> (S, S2) <- o" + std::to_string(obj) +
                     ".sal -> S, S2 = S + 800.");
    } else {  // delete an object's salary facts (maybe already gone)
      int obj = live[rng.Next(static_cast<uint32_t>(live.size()))];
      txns.push_back("t: del[o" + std::to_string(obj) + "].sal -> S <- o" +
                     std::to_string(obj) + ".sal -> S.");
    }
  }
  return txns;
}

ConnectionOptions TortureOptions(Env* env) {
  ConnectionOptions options;
  options.env = env;
  options.retry_backoff_us = 0;
  return options;
}

std::string BaseString(Connection& conn) {
  return ObjectBaseToString(conn.database().current(), conn.symbols(),
                            conn.versions());
}

std::string SessionViewString(Connection& conn, Session& session) {
  Result<const ObjectBase*> view = session.ViewSnapshot("rich");
  if (!view.ok()) {
    ADD_FAILURE() << "view snapshot: " << view.status().ToString();
    return "<error>";
  }
  return ObjectBaseToString(**view, conn.symbols(), conn.versions());
}

/// Everything the reference (fault-free) run records about the workload:
/// the per-committed-transaction truth the crash sweeps compare against.
struct Reference {
  /// states[k] / view_states[k] = base / view-result rendering after the
  /// first k transactions committed (index 0 = before any).
  std::vector<std::string> states;
  std::vector<std::string> view_states;
  /// state_by_records[r] = base rendering at the moment the WAL held
  /// exactly r records. Not every transaction writes a record (a del with
  /// nothing to delete commits an empty delta), and DIFFERENT prefixes
  /// can render equal states (ins then del returns to the start), so the
  /// record count — which recovery reports — is the unambiguous key the
  /// byte-prefix sweep matches on.
  std::vector<std::string> state_by_records;
  /// Total mutating env ops of the complete run — the crash-point space.
  uint64_t total_ops = 0;
  /// Final WAL image of a run WITHOUT checkpoint (byte-prefix sweep).
  std::string wal_bytes;
};

/// Runs the workload start to finish on `env`. Returns the number of
/// acknowledged (successfully committed) transactions; stops at the first
/// failure (after a crash fault everything fails). When `ref` is given,
/// records expected states; `checkpoint_at` < 0 disables the checkpoint.
size_t RunWorkload(FaultInjectingEnv& env, const std::vector<std::string>& txns,
                   int checkpoint_at, Reference* ref) {
  Result<std::unique_ptr<Connection>> conn =
      Connection::Open(kDir, TortureOptions(&env));
  if (!conn.ok()) return 0;
  auto session = (*conn)->OpenSession();
  if (!session->Execute(kViewDdl).ok()) return 0;

  // Subscription replay ledger: folding every delivered ViewDelta onto
  // the (empty) subscribe-time seed must reconstruct the live view result
  // after every transaction — the read-replica contract.
  std::set<std::string> replay;
  uint64_t sub = 0;
  if (ref != nullptr) {
    Result<uint64_t> token = session->Subscribe(
        "rich", [&replay, conn = conn->get()](const ViewDelta& delta) {
          for (const DeltaFact& fact : delta.facts) {
            std::string row = FactToString(fact.vid, fact.method, fact.app,
                                           conn->symbols(), conn->versions());
            if (fact.added) {
              replay.insert(row);
            } else {
              replay.erase(row);
            }
          }
        });
    EXPECT_TRUE(token.ok()) << token.status().ToString();
    sub = *token;

    ref->states.push_back(BaseString(**conn));
    ref->view_states.push_back(SessionViewString(**conn, *session));
    ref->state_by_records.push_back(BaseString(**conn));
  }

  size_t acked = 0;
  for (size_t i = 0; i < txns.size(); ++i) {
    if (checkpoint_at >= 0 && i == static_cast<size_t>(checkpoint_at)) {
      // Mid-workload checkpoint: its store-write / rename / WAL-remove
      // ops are crash points like any other. A failure here does not
      // abort the workload (a failed checkpoint loses nothing).
      (*conn)->Checkpoint().ok();
    }
    Status status = session->Execute(txns[i]).status();
    if (!status.ok() && status.code() != StatusCode::kObserverFailed) break;
    ++acked;
    if (ref != nullptr) {
      ref->states.push_back(BaseString(**conn));
      while (ref->state_by_records.size() <=
             (*conn)->wal_records_since_checkpoint()) {
        ref->state_by_records.push_back(ref->states.back());
      }
      std::string view_now = SessionViewString(**conn, *session);
      ref->view_states.push_back(view_now);
      // Subscription replay must have reconstructed exactly this state.
      std::string replayed;
      for (const std::string& row : replay) {
        replayed += row;
        replayed += '\n';
      }
      EXPECT_EQ(replayed, view_now)
          << "subscription replay diverged after txn " << i;
    }
  }
  if (ref != nullptr) {
    session->Unsubscribe(sub).ok();
    ref->total_ops = env.mutating_ops();
    auto it = env.files().find(std::string(kDir) + "/wal.log");
    ref->wal_bytes = it != env.files().end() ? it->second : std::string();
  }
  return acked;
}

/// Reopens the database from `disk` and asserts the recovered base AND
/// the re-created view equal the reference state after some prefix of
/// committed transactions. Returns that prefix length k (nullopt = the
/// recovered state matched NO committed prefix: atomicity is broken).
std::optional<size_t> RecoverAndMatch(Env* disk, const Reference& ref,
                                      bool check_view) {
  Result<std::unique_ptr<Connection>> conn =
      Connection::Open(kDir, TortureOptions(disk));
  if (!conn.ok()) {
    ADD_FAILURE() << "recovery failed: " << conn.status().ToString();
    return std::nullopt;
  }
  std::string base = BaseString(**conn);
  std::optional<size_t> matched;
  for (size_t k = 0; k < ref.states.size(); ++k) {
    if (ref.states[k] == base) matched = k;  // keep the LARGEST match
  }
  if (!matched.has_value()) {
    ADD_FAILURE() << "recovered base matches no committed prefix:\n" << base;
    return std::nullopt;
  }
  if (check_view) {
    // Views are re-created after open (they are not persistent); the
    // from-scratch evaluation over the recovered base must equal the
    // incrementally-maintained result the reference run recorded at k.
    auto session = (*conn)->OpenSession();
    Status ddl = session->Execute(kViewDdl).status();
    if (!ddl.ok()) {
      ADD_FAILURE() << "view re-creation failed: " << ddl.ToString();
      return matched;
    }
    Result<const ObjectBase*> view = session->ViewSnapshot("rich");
    if (!view.ok()) {
      ADD_FAILURE() << view.status().ToString();
      return matched;
    }
    EXPECT_EQ(ObjectBaseToString(**view, (*conn)->symbols(),
                                 (*conn)->versions()),
              ref.view_states[*matched])
        << "view result diverged from reference at prefix " << *matched;
  }
  return matched;
}

/// Opens a disk that holds only `wal` as the WAL. Returns the recovered
/// record count and base rendering (nullopt = recovery failed).
std::optional<std::pair<size_t, std::string>> RecoverWal(
    const std::string& wal) {
  FaultInjectingEnv env;
  env.SetFileContents(std::string(kDir) + "/wal.log", wal);
  Result<std::unique_ptr<Connection>> conn =
      Connection::Open(kDir, TortureOptions(&env));
  if (!conn.ok()) {
    ADD_FAILURE() << "recovery failed: " << conn.status().ToString();
    return std::nullopt;
  }
  return std::make_pair((*conn)->wal_records_since_checkpoint(),
                        BaseString(**conn));
}

TEST(CrashTortureTest, CrashAtEveryMutatingOpRecoversToACommittedPrefix) {
  const uint64_t seed = EnvKnob("VERSO_TORTURE_SEED", 12345);
  const uint64_t stride = EnvKnob("VERSO_TORTURE_OP_STRIDE", 1);
  const std::vector<std::string> txns = MakeWorkload(seed);
  const int checkpoint_at = static_cast<int>(txns.size()) / 2;

  // Fault-free reference run: records the committed-prefix truth and
  // the size of the crash-point space (and validates subscription
  // replay).
  FaultInjectingEnv clean;
  Reference ref;
  size_t all = RunWorkload(clean, txns, checkpoint_at, &ref);
  ASSERT_EQ(all, txns.size());
  ASSERT_EQ(ref.states.size(), txns.size() + 1);
  ASSERT_GT(ref.total_ops, 0u);

  // Crash at every mutating I/O point, twice: once with nothing of the
  // crashing op landing, once with a partial payload (short write / the
  // op completing right before the crash).
  for (uint64_t op = 0; op < ref.total_ops; op += stride) {
    for (size_t partial : {size_t{0}, size_t{6}}) {
      SCOPED_TRACE("crash at op " + std::to_string(op) + " partial " +
                   std::to_string(partial) + " seed " +
                   std::to_string(seed));
      FaultInjectingEnv env;
      FaultInjectingEnv::FaultPlan plan;
      plan.fail_at = op;
      plan.kind = FaultKind::kCrash;
      plan.partial_bytes = partial;
      env.SetPlan(plan);
      size_t acked = RunWorkload(env, txns, checkpoint_at, nullptr);
      ASSERT_TRUE(env.crashed());
      auto disk = env.CloneSurvivingFiles();
      std::optional<size_t> k =
          RecoverAndMatch(disk.get(), ref, /*check_view=*/true);
      ASSERT_TRUE(k.has_value());
      // Durability: every acknowledged commit survived the crash.
      EXPECT_GE(*k, acked) << "acked commit lost";
    }
  }
}

TEST(CrashTortureTest, EveryWalBytePrefixRecoversToACommittedPrefix) {
  const uint64_t seed = EnvKnob("VERSO_TORTURE_SEED", 12345);
  const uint64_t stride = EnvKnob("VERSO_TORTURE_PREFIX_STRIDE", 1);
  const std::vector<std::string> txns = MakeWorkload(seed);

  // Reference run WITHOUT a checkpoint, so the WAL alone carries every
  // transaction and truncating it to L bytes models a crash with
  // exactly L bytes durable.
  FaultInjectingEnv clean;
  Reference ref;
  ASSERT_EQ(RunWorkload(clean, txns, /*checkpoint_at=*/-1, &ref),
            txns.size());
  ASSERT_FALSE(ref.wal_bytes.empty());

  std::vector<size_t> lengths;
  for (size_t len = 0; len < ref.wal_bytes.size(); len += stride) {
    lengths.push_back(len);
  }
  lengths.push_back(ref.wal_bytes.size());  // the stride never skips "all"

  size_t last_records = 0;
  for (size_t len : lengths) {
    SCOPED_TRACE("wal prefix " + std::to_string(len) + "/" +
                 std::to_string(ref.wal_bytes.size()) + " bytes, seed " +
                 std::to_string(seed));
    const std::string prefix = ref.wal_bytes.substr(0, len);
    auto bare = RecoverWal(prefix);
    ASSERT_TRUE(bare.has_value());
    // Recovery replays exactly the full frames of the prefix; the state
    // must be the one the reference run had at that record count — not
    // merely "some equal-looking state".
    const auto& [records, state] = *bare;
    ASSERT_LT(records, ref.state_by_records.size());
    EXPECT_EQ(state, ref.state_by_records[records]);
    // More durable bytes can only mean more recovered records.
    EXPECT_GE(records, last_records) << "recovery went backwards";
    last_records = records;
    // The prefix followed by zeros stands in for a power cut that made
    // the file's length durable before its data (FaultInjectingEnv has
    // no power-cut mode yet). The zeros are a torn tail, so it recovers
    // what the bare prefix does — extended over any zeros the log holds
    // right there, since those rebuild the log's own bytes (a frame
    // whose missing bytes are all zero is complete again).
    const size_t zero_bytes = 16;
    size_t same = len;
    while (same < ref.wal_bytes.size() && same < len + zero_bytes &&
           ref.wal_bytes[same] == '\0') {
      ++same;
    }
    auto zero_tail = RecoverWal(prefix + std::string(zero_bytes, '\0'));
    auto expected =
        same == len ? bare : RecoverWal(ref.wal_bytes.substr(0, same));
    ASSERT_TRUE(zero_tail.has_value() && expected.has_value());
    EXPECT_EQ(*zero_tail, *expected) << "zero-filled tail";
  }
  // The full log recovers the full run.
  EXPECT_EQ(last_records, ref.state_by_records.size() - 1);
  FaultInjectingEnv full;
  full.SetFileContents(std::string(kDir) + "/wal.log", ref.wal_bytes);
  Result<std::unique_ptr<Connection>> conn =
      Connection::Open(kDir, TortureOptions(&full));
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(BaseString(**conn), ref.states.back());
}

TEST(CrashTortureTest, DifferentSeedsDifferentWorkloads) {
  // The seed knob genuinely varies the workload (the CI matrix relies on
  // distinct seeds exploring distinct commit/checkpoint interleavings).
  EXPECT_NE(MakeWorkload(1), MakeWorkload(2));
  EXPECT_EQ(MakeWorkload(7), MakeWorkload(7));
}

}  // namespace
}  // namespace verso
