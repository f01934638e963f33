#include "storage/database.h"

#include <algorithm>

#include "obs/metrics.h"
#include "storage/codec.h"
#include "store/store.h"
#include "util/io.h"

namespace verso {

namespace {

/// Commit-path handles into the global registry, bound once (registration
/// takes a mutex; the commit path must not). The histograms are the
/// per-commit phase spans, laps of one PhaseClock: evaluate (Engine::Run
/// splits it into commit.seal_us / commit.fixpoint_us /
/// commit.build_base_us, which are registered here too; the delta is
/// recorded inside the build of ob'); the delta diff against the
/// committed base, which only an import still runs (a commit records it
/// empty, one sample per transaction); WAL encode and append (durability,
/// retries and backoff included); the install of ob'; observer/view
/// fan-out; and the whole transaction end to end.
struct CommitMetrics {
  Counter& commits;
  Counter& batches;
  Counter& noops;
  Counter& rejected_readonly;
  Counter& delta_facts;
  Histogram& evaluate_us;
  Histogram& diff_us;
  Histogram& wal_append_us;
  Histogram& install_us;
  Histogram& fanout_us;
  Histogram& total_us;

  static CommitMetrics& Get() {
    static CommitMetrics* metrics =
        new CommitMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit CommitMetrics(MetricsRegistry& registry)
      : commits(registry.GetCounter("commit.count")),
        batches(registry.GetCounter("commit.batches")),
        noops(registry.GetCounter("commit.noops")),
        rejected_readonly(registry.GetCounter("commit.rejected_readonly")),
        delta_facts(registry.GetCounter("commit.delta_facts")),
        evaluate_us(registry.GetHistogram("commit.evaluate_us")),
        diff_us(registry.GetHistogram("commit.diff_us")),
        wal_append_us(registry.GetHistogram("commit.wal_append_us")),
        install_us(registry.GetHistogram("commit.install_us")),
        fanout_us(registry.GetHistogram("commit.fanout_us")),
        total_us(registry.GetHistogram("commit.total_us")) {
    registry.GetHistogram("commit.seal_us");
    registry.GetHistogram("commit.fixpoint_us");
    registry.GetHistogram("commit.build_base_us");
  }
};

/// Checkpoint/recovery/fault handles. The recovery counters make bounded
/// recovery observable: replayed_frames is the suffix length the last
/// checkpoint left behind, recovery_us the total microseconds spent
/// recovering, recovery_store_keys the stored versions loaded, and
/// recovery_facts_decoded the fact images decoded — every fact of every
/// stored record plus each distinct image of the WAL suffix, so a suffix
/// that edits the same facts over and over shows as fewer decodes than
/// logged facts. Counters rather than histograms — opens are rare, and
/// dashboards watch the totals alongside the checkpoint cadence; one
/// recovery's figure is the counter's rise across its Open. faults
/// counts every traced I/O fault (a failed WAL rollback included, which
/// StorageStats::io_failures does not), degraded_entered the faults that
/// tipped a database into read-only mode.
struct StorageMetrics {
  Counter& faults;
  Counter& degraded_entered;
  Counter& checkpoints;
  Counter& auto_checkpoints;
  Counter& recovery_replayed_frames;
  Counter& recovery_us;
  Counter& recovery_store_keys;
  Counter& recovery_facts_decoded;
  Histogram& checkpoint_us;

  static StorageMetrics& Get() {
    static StorageMetrics* metrics =
        new StorageMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit StorageMetrics(MetricsRegistry& registry)
      : faults(registry.GetCounter("storage.faults")),
        degraded_entered(registry.GetCounter("storage.degraded_entered")),
        checkpoints(registry.GetCounter("storage.checkpoints")),
        auto_checkpoints(registry.GetCounter("storage.auto_checkpoints")),
        recovery_replayed_frames(
            registry.GetCounter("storage.recovery_replayed_frames")),
        recovery_us(registry.GetCounter("storage.recovery_us")),
        recovery_store_keys(
            registry.GetCounter("storage.recovery_store_keys")),
        recovery_facts_decoded(
            registry.GetCounter("storage.recovery_facts_decoded")),
        checkpoint_us(registry.GetHistogram("storage.checkpoint_us")) {}
};

/// Store keys of base state: "b/" + EncodeVersionKey. The prefix leaves
/// room for future record families (views, catalogs) in the same store.
constexpr char kBasePrefix[] = "b/";

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 Engine& engine,
                                                 DatabaseOptions options) {
  if (dir.empty()) {
    return Status::InvalidArgument(
        "database directory must not be empty (use OpenInMemory for an "
        "ephemeral database)");
  }
  std::unique_ptr<Database> db(new Database(dir, engine, options));
  StorageMetrics& smetrics = StorageMetrics::Get();
  Env* env = db->env_;
  for (const char* legacy : {"snapshot.vsnp", "store.plog"}) {
    // A checkpoint this build does not read: its commits are in no
    // store.img and no longer in the WAL, so recovering without it would
    // lose them.
    if (env->FileExists(dir + "/" + legacy)) {
      return Status::InvalidArgument("'" + dir + "' holds a " + legacy +
                                     " checkpoint, which this build no "
                                     "longer reads");
    }
  }
  VERSO_RETURN_IF_ERROR(env->EnsureDirectory(dir));
  const uint64_t recover_start = db->clock_->NowNanos();
  VERSO_ASSIGN_OR_RETURN(db->store_, Store::Open(dir, env));
  Result<uint64_t> generation = db->store_->GetMeta("generation");
  size_t facts_decoded = 0;
  if (generation.ok()) {
    // The store holds the latest checkpoint generation: rebuild the base
    // from its per-version records in one range scan — each record
    // becomes its version's state, adopted whole — then replay only the
    // WAL suffix behind it below: O(base + tail), not O(history).
    db->checkpoint_generation_ = *generation;
    size_t keys = 0;
    FactDecoder decoder(engine.symbols(), engine.versions());
    VERSO_RETURN_IF_ERROR(db->store_->Scan(
        kBasePrefix, [&](std::string_view key, std::string_view value) {
          ++keys;
          key.remove_prefix(sizeof(kBasePrefix) - 1);
          VERSO_ASSIGN_OR_RETURN(
              size_t facts,
              DecodeVersionRecordInto(key, value, decoder, db->current_));
          facts_decoded += facts;
          return Status::Ok();
        }));
    smetrics.recovery_store_keys.Add(keys);
  } else if (generation.status().code() != StatusCode::kNotFound) {
    return generation.status();
  }
  // What the store holds, before the WAL suffix moves current_ past it:
  // the next checkpoint writes only the difference.
  db->checkpointed_ = db->current_;
  VERSO_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(db->wal_.path(), env));
  db->recovered_torn_ = wal.truncated_tail;
  if (wal.truncated_tail) {
    // Chop the torn tail now: the next Append must extend the valid
    // prefix, or everything committed after the tear would sit behind
    // garbage and be lost to every future recovery. The chopped bytes
    // are preserved in a side file first — a CRC failure MID-log (bit
    // rot ahead of valid acknowledged records) is indistinguishable
    // from a torn tail here, and destroying the evidence would make
    // that data loss unrecoverable even by hand.
    //
    // Preservation is best-effort: a failure to write the side file (or
    // the side file having reached its growth cap across repeated
    // recoveries) must not abort recovery — the database is recoverable,
    // only the forensic copy is incomplete. The failure is recorded on
    // the database (corrupt_tail_preservation()) instead of being
    // swallowed. Truncation, by contrast, stays fatal: without it every
    // later commit appends behind garbage and is lost.
    VERSO_ASSIGN_OR_RETURN(std::string raw, env->ReadFile(db->wal_.path()));
    if (raw.size() > wal.valid_bytes) {
      const std::string corrupt_path = db->wal_.path() + ".corrupt";
      std::string_view tail = std::string_view(raw).substr(wal.valid_bytes);
      size_t existing = 0;
      bool size_known = true;
      if (env->FileExists(corrupt_path)) {
        Result<size_t> size = env->FileSize(corrupt_path);
        if (size.ok()) {
          existing = *size;
        } else {
          // Unknown side-file size: appending could overshoot the cap,
          // so skip preservation and record why — defaulting to "empty"
          // here would both bust the cap and report Ok.
          size_known = false;
          db->corrupt_tail_preservation_ = size.status();
        }
      }
      if (!size_known) {
        // recorded above; nothing appended
      } else if (existing >= kCorruptPreserveCap) {
        db->corrupt_tail_preservation_ = Status::IoError(
            "wal.log.corrupt is at its growth cap (" +
            std::to_string(existing) + " bytes); dropped " +
            std::to_string(tail.size()) + " torn-tail bytes unpreserved");
      } else {
        if (existing + tail.size() > kCorruptPreserveCap) {
          tail = tail.substr(0, kCorruptPreserveCap - existing);
        }
        Status preserved = env->AppendFile(corrupt_path, tail);
        if (!preserved.ok()) {
          db->corrupt_tail_preservation_ = preserved;
        } else if (tail.size() < raw.size() - wal.valid_bytes) {
          db->corrupt_tail_preservation_ = Status::IoError(
              "wal.log.corrupt reached its growth cap; preserved only " +
              std::to_string(tail.size()) + " of " +
              std::to_string(raw.size() - wal.valid_bytes) +
              " torn-tail bytes");
        }
      }
    }
    VERSO_RETURN_IF_ERROR(
        env->TruncateFile(db->wal_.path(), wal.valid_bytes));
  }
  // The suffix replays as one net delta: each distinct fact image is
  // decoded once and only its last operation applied. Replay is
  // idempotent — fact-level deltas have set semantics (duplicate inserts
  // and absent-fact erases are no-ops) — so records whose effects the
  // store generation already folds, the checkpoint crash window, replay
  // to the identical state; and a suffix that nets to nothing leaves
  // every state shared with checkpointed_.
  VERSO_ASSIGN_OR_RETURN(
      size_t distinct,
      ReplayDeltaBatches(wal.records, engine.symbols(), engine.versions(),
                         db->current_));
  facts_decoded += distinct;
  db->wal_records_ = wal.records.size();
  db->wal_bytes_ = wal.valid_bytes;
  smetrics.recovery_replayed_frames.Add(wal.records.size());
  smetrics.recovery_facts_decoded.Add(facts_decoded);
  smetrics.recovery_us.Add((db->clock_->NowNanos() - recover_start) / 1000);
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenInMemory(Engine& engine) {
  // Preregister the checkpoint/recovery metrics so the observability
  // surface is stable: a dashboard sees storage.* at zero from an
  // ephemeral database rather than the keys appearing on first reopen.
  StorageMetrics::Get();
  std::unique_ptr<Database> db(
      new Database(std::string(), engine, DatabaseOptions()));
  db->ephemeral_ = true;
  return db;
}

Database::~Database() {
  for (CommitObserver* observer : observers_) observer->OnDatabaseClosed();
}

void Database::AddObserver(CommitObserver* observer) {
  // Idempotent: a doubly-registered observer would see every commit twice
  // (double view maintenance, double stats).
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void Database::RemoveObserver(CommitObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

Status Database::NotifyObservers(const DeltaLog& delta, uint64_t epoch) {
  // Every observer sees every committed delta even if one errors —
  // aborting delivery would silently desynchronize the healthy observers
  // from current(). The first error is reported as kObserverFailed so the
  // caller can tell "committed, but an observer broke" (never retry) from
  // an evaluation failure (base untouched, retry is safe).
  Status first_error;
  for (CommitObserver* observer : observers_) {
    Status status = observer->OnCommit(delta, current_, epoch);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  if (!first_error.ok()) {
    return Status::ObserverFailed("commit is durable but an observer "
                                  "failed: " +
                                  first_error.ToString());
  }
  return Status::Ok();
}

Status Database::CheckWritable() const {
  if (degraded_.ok()) return Status::Ok();
  CommitMetrics::Get().rejected_readonly.Add();
  return Status::ReadOnly("database is in degraded (read-only) mode: " +
                          degraded_.ToString());
}

void Database::TraceFault(std::string_view op, const Status& status,
                          uint32_t attempt, bool degraded) {
  StorageMetrics& metrics = StorageMetrics::Get();
  metrics.faults.Add();
  if (degraded) metrics.degraded_entered.Add();
  if (opts_.trace != nullptr) {
    opts_.trace->OnStorageFault(op, status, attempt, degraded);
  }
}

void Database::EnterDegraded(const Status& cause) {
  if (!degraded_.ok()) return;  // sticky: first cause wins
  degraded_ = cause;
  ++stats_.degraded_entered;
}

Status Database::RollbackWalTail(size_t pre_size) {
  if (!env_->FileExists(wal_.path())) {
    return pre_size == 0
               ? Status::Ok()
               : Status::IoError("WAL vanished beneath the committed tail");
  }
  VERSO_ASSIGN_OR_RETURN(size_t now, env_->FileSize(wal_.path()));
  if (now == pre_size) return Status::Ok();
  if (now < pre_size) {
    return Status::IoError("WAL shrank beneath the committed tail");
  }
  return env_->TruncateFile(wal_.path(), pre_size);
}

Status Database::AppendWalDurable(std::string_view payload) {
  // The tail position before the append: a failed attempt may have
  // landed a partial frame, and a retry must not stack a fresh frame
  // behind that garbage — recovery would stop at the tear and lose the
  // retried commit and every later one.
  size_t pre_size = 0;
  bool know_tail = true;
  if (env_->FileExists(wal_.path())) {
    Result<size_t> size = env_->FileSize(wal_.path());
    if (size.ok()) {
      pre_size = *size;
    } else {
      know_tail = false;  // cannot roll back safely: no retries
    }
  }
  uint32_t attempt = 0;
  Status status;
  for (;;) {
    status = wal_.Append(payload);
    if (status.ok()) return Status::Ok();
    ++stats_.io_failures;
    bool retryable = status.code() == StatusCode::kIoTransient &&
                     attempt < opts_.wal_retry_limit && know_tail;
    TraceFault("wal-append", status, attempt, !retryable);
    if (!retryable) break;
    Status rolled = RollbackWalTail(pre_size);
    if (!rolled.ok()) {
      TraceFault("wal-rollback", rolled, attempt, true);
      status = rolled;
      break;
    }
    ++stats_.retries;
    ++attempt;
    if (opts_.retry_backoff_us > 0) {
      clock_->SleepMicros(static_cast<uint64_t>(opts_.retry_backoff_us)
                          << attempt);
    }
  }
  EnterDegraded(status);
  return status;
}

Status Database::ImportBase(const ObjectBase& base) {
  VERSO_RETURN_IF_ERROR(CheckWritable());
  CommitMetrics& metrics = CommitMetrics::Get();
  PhaseClock phases(MetricsRegistry::Global());
  // The one commit that diffs: an import replaces the base wholesale, so
  // its delta is the difference, and its ob' the base itself.
  std::vector<RunOutcome> import;
  import.push_back(RunOutcome{base, base, Stratification(), EvalStats(),
                              ToDeltaLog(ComputeDelta(current_, base))});
  phases.Lap(metrics.diff_us);
  return Install(import, phases);
}

Result<RunOutcome> Database::Execute(Program& program,
                                     const EvalOptions& options,
                                     TraceSink* trace) {
  VERSO_ASSIGN_OR_RETURN(std::vector<RunOutcome> outcomes,
                         ExecuteBatch({&program}, options, trace));
  return std::move(outcomes.front());
}

Result<std::vector<RunOutcome>> Database::ExecuteBatch(
    const std::vector<Program*>& programs, const EvalOptions& options,
    TraceSink* trace) {
  // Refuse before evaluating: a degraded database cannot commit, so the
  // evaluation work (and any observer side effects) would be wasted.
  VERSO_RETURN_IF_ERROR(CheckWritable());
  CommitMetrics& metrics = CommitMetrics::Get();
  PhaseClock phases(MetricsRegistry::Global());
  const uint64_t start = phases.mark();
  if (programs.size() > 1) metrics.batches.Add();
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(programs.size());

  // Evaluate the whole batch against the evolving (uncommitted) base; a
  // failing transaction aborts the batch before anything touches the log.
  // The outcomes vector keeps every new_base alive, so the evolving base
  // is tracked by pointer instead of copying it per transaction.
  // One evaluate span covers the whole group — the batch's unit of work
  // is the group, matching its one durability write below.
  const ObjectBase* working = &current_;
  for (Program* program : programs) {
    Result<RunOutcome> outcome =
        engine_.Run(*program, *working, options, trace, &phases);
    if (!outcome.ok()) {
      phases.Tick();
      phases.Since(start, metrics.evaluate_us);
      phases.Since(start, metrics.total_us);
      return outcome.status();
    }
    // Its delta came out of the build of ob' (commit.build_base_us), so
    // nothing is left to diff: the span is empty.
    phases.Since(phases.mark(), metrics.diff_us);
    outcomes.push_back(std::move(outcome).value());
    working = &outcomes.back().new_base;
  }
  phases.Since(start, metrics.evaluate_us);
  Status installed = Install(outcomes, phases);
  phases.Since(start, metrics.total_us);
  VERSO_RETURN_IF_ERROR(installed);
  return outcomes;
}

Status Database::Install(std::vector<RunOutcome>& members,
                         PhaseClock& phases) {
  CommitMetrics& metrics = CommitMetrics::Get();
  if (std::all_of(members.begin(), members.end(), [](const RunOutcome& m) {
        return m.committed_delta.empty();
      })) {
    metrics.noops.Add(members.size());
    for (RunOutcome& member : members) member.committed_epoch = commit_epoch_;
    return Status::Ok();
  }
  // One WAL record — one durability write — for the whole group, encoded
  // from the deltas the observers read. Durability first: the record hits
  // the log before memory moves. A failed append leaves the base
  // untouched and degrades the database; its span records all the same,
  // so degraded commits still show up in commit.wal_append_us.
  if (!ephemeral_) {
    std::vector<const DeltaLog*> deltas;
    deltas.reserve(members.size());
    for (const RunOutcome& member : members) {
      deltas.push_back(&member.committed_delta);
    }
    std::string payload =
        EncodeDeltaBatch(deltas, engine_.symbols(), engine_.versions());
    Status appended = AppendWalDurable(payload);
    phases.Lap(metrics.wal_append_us);
    VERSO_RETURN_IF_ERROR(appended);
    ++wal_records_;
    wal_bytes_ += payload.size() + 12;  // 12-byte frame header
  }
  // The last member's ob' is the committed base plus every delta of the
  // group, built on it: the install adopts it whole, an O(1) copy, so
  // current() shares every version state with it. Every delta is
  // installed before observers run: the group is durable, so an observer
  // error must not leave current() behind the log.
  current_ = members.back().new_base;
  phases.Lap(metrics.install_us);
  // Deliver every delta even if an observer errors on one of them: all of
  // them are durable and installed, so later deltas must reach the
  // observers that are still healthy. The epoch advances once per
  // transaction of the group, right before that transaction's observers
  // run; a no-op member neither advances it nor notifies.
  Status first_error;
  for (RunOutcome& member : members) {
    if (member.committed_delta.empty()) {
      metrics.noops.Add();
      member.committed_epoch = commit_epoch_;
      continue;
    }
    metrics.commits.Add();
    metrics.delta_facts.Add(member.committed_delta.size());
    ++commit_epoch_;
    // Observers for member i are stamped with member i's OWN epoch — a
    // subscription delta delivered mid-batch must not carry a later
    // member's epoch (the regression this guards is epoch-tagged view
    // replay across ExecuteBatch).
    Status status = NotifyObservers(member.committed_delta, commit_epoch_);
    member.committed_epoch = commit_epoch_;
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  phases.Lap(metrics.fanout_us);
  // After fan-out: the commit (and its observer deliveries) are complete
  // whether or not the WAL gets folded now.
  if (MaybeAutoCheckpoint()) phases.Tick();
  return first_error;
}

Status Database::Checkpoint() {
  if (ephemeral_) return Status::Ok();  // nothing to fold
  VERSO_RETURN_IF_ERROR(CheckWritable());
  StorageMetrics& metrics = StorageMetrics::Get();
  ScopedTimer timer(MetricsRegistry::Global(), metrics.checkpoint_us);
  // The store holds checkpointed_, one record per version under "b/":
  // stage a record for each version whose state differs from it by value
  // (one edited and edited back keeps its stored record) and a delete for
  // each vanished version, in one atomic commit with the bumped
  // generation. The diff skips every subtree and state the two bases
  // share, so this costs what changed since the last checkpoint.
  WriteTransaction txn = store_->BeginWrite();
  ObjectBase::VersionMap::Diff(
      checkpointed_.versions(), current_.versions(),
      [&](Vid vid, const ObjectBase::StatePtr* was,
          const ObjectBase::StatePtr* now) {
        if (was != nullptr && now != nullptr && **was == **now) return true;
        std::string key =
            kBasePrefix +
            EncodeVersionKey(vid, engine_.symbols(), engine_.versions());
        if (now == nullptr) {
          txn.Delete(std::move(key));
        } else {
          txn.Put(std::move(key),
                  EncodeVersionRecord(vid, **now, engine_.symbols(),
                                      engine_.versions()));
        }
        return true;
      });
  // With nothing staged the store already holds current() by value, so
  // it alone recovers exactly: the WAL goes without a store commit, and
  // the generation (which counts store commits) stays.
  if (!txn.ops().empty() || store_in_doubt_) {
    txn.PutMeta("generation", checkpoint_generation_ + 1);
    Status committed = txn.Commit();
    if (!committed.ok()) {
      // Nothing lost: the WAL still holds every commit and the store's
      // maps (at the old generation) are untouched — a store commit is
      // atomic. Stay healthy.
      ++stats_.io_failures;
      store_in_doubt_ = true;
      TraceFault("checkpoint-store", committed, 0, false);
      return committed;
    }
    store_in_doubt_ = false;
    ++checkpoint_generation_;
  }
  checkpointed_ = current_;
  // The store holds current() durably; only now may the WAL shrink. A crash
  // (or failure) between the two steps leaves store + stale WAL, and
  // recovery replays the already-folded records idempotently — the
  // torture harness crashes at every I/O point of this sequence.
  Status truncated = env_->RemoveFile(wal_.path());
  if (!truncated.ok()) {
    ++stats_.io_failures;
    TraceFault("checkpoint-truncate", truncated, 0, false);
    return truncated;
  }
  wal_records_ = 0;
  wal_bytes_ = 0;
  metrics.checkpoints.Add();
  return Status::Ok();
}

bool Database::MaybeAutoCheckpoint() {
  if (ephemeral_ || opts_.checkpoint_wal_bytes == 0) return false;
  if (wal_bytes_ < opts_.checkpoint_wal_bytes) return false;
  if (!degraded_.ok()) return false;  // Checkpoint would refuse
  if (Checkpoint().ok()) {
    StorageMetrics::Get().auto_checkpoints.Add();
  }
  return true;
}

}  // namespace verso
