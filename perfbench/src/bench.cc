// End-to-end benchmark program: runs one named workload against the
// client API (Connection / Session / Statement, default
// ConnectionOptions) from one thread, checks every output against its
// own model of the state, and prints one JSON result line. Workloads,
// metrics and the traced run are described in perfbench/README.md.
//
//   perfbench --workload point_txn|bulk_rules --seed N
//             --seconds S --dir DIR [--trace-out FILE] [--counts-out FILE]
//             [--cycles N] [--small] [--setups N]
//
// Exit codes: 0 ok, 1 usage or setup error, 2 oracle mismatch or a failed
// stationarity guard.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/api.h"
#include "core/commit.h"
#include "core/pretty.h"
#include "gen.h"
#include "obs/metrics.h"
#include "probe.h"
#include "storage/codec.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  std::string dir;
  std::string trace_out;   // traced run: span file
  std::string counts_out;  // per-op work counts (self-test)
  int cycles = 0;          // > 0: exactly this many loop cycles
  bool small = false;
  int setups = 5;
};

[[noreturn]] void Mismatch(const std::string& what) {
  std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", what.c_str());
  std::exit(2);
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int EmpIndex(const std::string& name) {
  if (name.size() != 5 || name[0] != 'e') Mismatch("unexpected object " + name);
  return std::atoi(name.c_str() + 1);
}

/// Exact sums (.sum_us) and counters of the global registry, read around
/// each traced op; the bucketed quantiles are never used.
struct RegistryReading {
  uint64_t evaluate_us, wal_append_us, install_us, fanout_us, analysis_us,
      query_eval_us, delta_facts, store_puts, store_keys, replayed_frames;
};

class Registry {
 public:
  Registry()
      : reg_(verso::MetricsRegistry::Global()),
        evaluate_(reg_.GetHistogram("commit.evaluate_us")),
        wal_append_(reg_.GetHistogram("commit.wal_append_us")),
        install_(reg_.GetHistogram("commit.install_us")),
        fanout_(reg_.GetHistogram("commit.fanout_us")),
        analysis_(reg_.GetHistogram("analysis.us")),
        query_eval_(reg_.GetHistogram("query.eval_us")),
        delta_facts_(reg_.GetCounter("commit.delta_facts")),
        store_puts_(reg_.GetCounter("store.puts")),
        store_keys_(reg_.GetCounter("storage.recovery_store_keys")),
        replayed_(reg_.GetCounter("storage.recovery_replayed_frames")) {}

  RegistryReading Read() const {
    return {evaluate_.sum_micros(), wal_append_.sum_micros(),
            install_.sum_micros(),  fanout_.sum_micros(),
            analysis_.sum_micros(), query_eval_.sum_micros(),
            delta_facts_.value(),   store_puts_.value(),
            store_keys_.value(),    replayed_.value()};
  }

 private:
  verso::MetricsRegistry& reg_;
  verso::Histogram& evaluate_;
  verso::Histogram& wal_append_;
  verso::Histogram& install_;
  verso::Histogram& fanout_;
  verso::Histogram& analysis_;
  verso::Histogram& query_eval_;
  verso::Counter& delta_facts_;
  verso::Counter& store_puts_;
  verso::Counter& store_keys_;
  verso::Counter& replayed_;
};

/// Per-op work counts every run records; the stationarity guard and the
/// self-test compare them.
struct OpCounts {
  const char* kind;
  int cycle;  // loop cycle
  uint64_t rounds = 0;
  uint64_t delta_facts = 0;
  int64_t wal_bytes = 0;
  uint64_t view_delta_facts = 0;
  uint64_t replayed_frames = 0;
  uint64_t rows = 0;
};

struct ViewTotals {
  uint64_t delta_facts = 0, added = 0, removed = 0, overdeleted = 0,
           rederived = 0;
};

/// Sorted (object, result) index pairs of a result's rows.
std::vector<std::pair<int, int>> RowPairs(verso::ResultSet& rs,
                                          const char* method) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(rs.size());
  rs.Rewind();
  while (rs.Next()) {
    if (rs.method() != method) Mismatch("unexpected method " + rs.method());
    pairs.emplace_back(EmpIndex(rs.object()), EmpIndex(rs.result_text()));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Sorted rendered rows: comparable across engines (OIDs are not).
std::string RenderRows(verso::ResultSet& rs) {
  std::vector<std::string> rows;
  rs.Rewind();
  while (rs.Next()) rows.push_back(rs.RowToString());
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) out += row + "\n";
  return out;
}

/// One statement inside a timed op: Prepare and Execute now, Release()
/// later; each step is a span in the traced run. The op checks the result
/// between Execute and Release, with its timer paused.
class Executed {
 public:
  Executed(Tracer& tracer, verso::Session& session, const std::string& text)
      : tracer_(tracer) {
    stmt_.emplace(Traced(tracer, "Session::Prepare",
                         [&] { return session.Prepare(text); }));
    if (stmt_->ok()) {
      rs_.emplace(Traced(tracer, "Statement::Execute",
                         [&] { return (*stmt_)->Execute(); }));
    }
  }
  bool ok() const { return rs_.has_value() && rs_->ok(); }
  std::string error() const {
    return (stmt_->ok() ? rs_->status() : stmt_->status()).ToString();
  }
  verso::ResultSet& result() { return rs_->value(); }
  void Release() {
    Traced(tracer_, "ResultSet::release", [&] {
      rs_.reset();
      stmt_.reset();
    });
  }

 private:
  Tracer& tracer_;
  std::optional<verso::Result<verso::Statement>> stmt_;
  std::optional<verso::Result<verso::ResultSet>> rs_;
};

class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt), tracer_(!opt.trace_out.empty()) {
    EnterpriseParams params;
    if (opt.workload == "point_txn") {
      params.employees = opt.small ? 256 : 4096;
      params.departments = opt.small ? 16 : 64;
      views_ = {"rich", "chain"};
    } else if (opt.workload == "bulk_rules") {
      params.employees = opt.small ? 128 : 1024;
      params.departments = opt.small ? 8 : 16;
      params.mover_every = 8;
      views_ = {"chain"};
    } else {
      Fatal("unknown workload '" + opt.workload + "'");
    }
    bulk_ = opt.workload == "bulk_rules";
    rounds_per_cycle_ = bulk_ ? 16 : 32;
    ent_ = MakeEnterprise(params, opt.seed);
    base_text_ = BaseText(ent_);
    start_boss_ = ent_.boss;
    moved_boss_ = ent_.boss;
    for (int i = 0; i < ent_.n; ++i) {
      if (ent_.level[i] == ent_.depth) leaves_.push_back(i);
      if (ent_.alt[i] < 0) continue;
      moved_boss_[i] = ent_.alt[i];
      ++movers_;
    }
    start_closure_ = BossClosure(start_boss_);
    moved_closure_ = BossClosure(moved_boss_);
  }

  int Run();

 private:
  // -- connection lifecycle -------------------------------------------
  void ResetModel();
  void SetupOnce();
  void CheckRecovered(const std::string& base, const std::string& chain);
  std::string RenderBase() const {
    return verso::ObjectBaseToString(session_->base(), conn_->symbols(),
                                     conn_->versions());
  }
  std::string RenderView(const char* view);
  ViewTotals Views() const;

  // -- timed ops ------------------------------------------------------
  bool Commit(const std::string& text, size_t expected_rows);
  template <typename Check>
  bool Read(const char* view, Check&& check);
  template <typename Check>
  bool Query(const std::string& text, Check&& check);
  bool Checkpoint();
  void Reopen();
  void CreateViews();
  bool Failed(const char* op, const std::string& error);
  void Record(const char* kind, double ms, OpCounts counts,
              std::vector<double>& samples);

  // -- workload rounds ------------------------------------------------
  void Round(Rng& rng, int r);
  void PointRound(Rng& rng, bool up);
  void BulkRound(Rng& rng, int sign);
  void Cycle(Rng& rng);
  void PointOracles();
  void BulkOracles();

  // -- output checks --------------------------------------------------
  void CheckRich(verso::ResultSet& rs);
  void CheckPay(verso::ResultSet& rs, int i);
  void CheckUp(verso::ResultSet& rs, int i);
  void CheckChain(verso::ResultSet& rs);
  // Runs a statement outside any op (output checks).
  verso::ResultSet RunUntimed(const char* text);

  void StationarityGuard() const;
  void WriteCounts() const;
  void PrintResult(double setup_s, double loop_s, int cycles);

  const Options opt_;
  Tracer tracer_;
  Registry registry_;
  HostProbe probe_;
  Enterprise ent_;
  std::string base_text_;
  std::vector<const char*> views_;
  bool bulk_ = false;
  int rounds_per_cycle_ = 0;
  size_t movers_ = 0;
  std::vector<int> leaves_;  // employees on the bottom level

  std::unique_ptr<verso::Connection> conn_;
  std::unique_ptr<verso::Session> session_;

  // Model of the committed state.
  std::vector<int64_t> sal_;
  std::vector<bool> high_;
  std::vector<int> low_set_, high_set_, set_pos_;
  bool moved_ = false;
  std::vector<int> start_boss_, moved_boss_;
  std::vector<std::pair<int, int>> start_closure_, moved_closure_;

  // bulk_rules: the post-set-up base each mirrored pair must return to.
  std::string expect_base_;

  // Measurements. Op latencies are scaled to the probe's nominal host
  // speed when their cycle ends.
  bool recording_ = false;
  int cycle_ = 0;
  std::vector<double> commit_ms_, read_ms_, query_ms_, checkpoint_ms_,
      reopen_ms_;
  std::vector<double> probe_ms_;  // raw probe times of the timed loop
  int64_t probe_ns_ = 0;          // wall time spent in the probe
  double cycle_scale_ = 1;        // the last cycle's host-speed scale
  std::vector<OpCounts> counts_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double store_bytes_per_fact_ = 0;
};

void Bench::ResetModel() {
  sal_.assign(ent_.n, 0);
  high_ = ent_.starts_high;
  low_set_.clear();
  high_set_.clear();
  set_pos_.assign(ent_.n, 0);
  for (int i = 0; i < ent_.n; ++i) {
    sal_[i] = high_[i] ? ent_.high[i] : ent_.low[i];
    std::vector<int>& set = high_[i] ? high_set_ : low_set_;
    set_pos_[i] = static_cast<int>(set.size());
    set.push_back(i);
  }
  moved_ = false;
}

ViewTotals Bench::Views() const {
  ViewTotals t;
  for (const char* view : views_) {
    verso::Result<verso::ViewStats> s = conn_->GetViewStats(view);
    if (!s.ok()) Fatal("view stats: " + s.status().ToString());
    t.delta_facts += s->delta_facts_seen;
    t.added += s->facts_added;
    t.removed += s->facts_removed;
    t.overdeleted += s->overdeleted;
    t.rederived += s->rederived;
  }
  return t;
}

void Bench::Record(const char* kind, double ms, OpCounts counts,
                   std::vector<double>& samples) {
  if (!recording_) return;
  counts.kind = kind;
  counts.cycle = cycle_;
  counts_.push_back(counts);
  samples.push_back(ms);
}

bool Bench::Commit(const std::string& text, size_t expected_rows) {
  const std::string wal = opt_.dir + "/wal.log";
  const int64_t wal_before = FileSize(wal);
  const ViewTotals views_before = Views();
  const RegistryReading reg_before = registry_.Read();
  // Traced run only: a copy of the pre-commit base followed by the seal,
  // split out of Engine::Run (the copy is kept for ComputeDelta below).
  std::optional<verso::ObjectBase> pre;
  double seal_ms = 0;
  if (tracer_.enabled()) {
    pre = conn_->database().current();
    const int64_t t = NowNs();
    verso::ObjectBase sealed = *pre;
    sealed.SealExistence();
    seal_ms = static_cast<double>(NowNs() - t) / 1e6;
  }
  if (recording_) ++attempted_;
  OpTimer timer(tracer_, "commit");
  Executed stmt(tracer_, *session_, text);
  timer.Pause();
  OpCounts counts{};
  if (stmt.ok()) {
    verso::ResultSet& rs = stmt.result();
    if (rs.size() != expected_rows) {
      Mismatch("commit delta has " + std::to_string(rs.size()) +
               " rows, expected " + std::to_string(expected_rows) + ": " +
               text);
    }
    counts.rounds = rs.eval_stats()->total_rounds();
    counts.delta_facts = rs.size();
    if (tracer_.enabled()) {
      // Side calls, excluded from the op's latency.
      const verso::EvalStats& es = *rs.eval_stats();
      int64_t t = NowNs();
      verso::Result<verso::ObjectBase> fresh = verso::BuildNewObjectBase(
          *rs.update_result(), conn_->symbols(), conn_->engine().versions());
      const double build_ms = static_cast<double>(NowNs() - t) / 1e6;
      if (!fresh.ok()) Mismatch("side BuildNewObjectBase failed");
      t = NowNs();
      verso::FactDelta delta = verso::ComputeDelta(*pre, *fresh);
      const double diff_ms = static_cast<double>(NowNs() - t) / 1e6;
      if (delta.added.size() + delta.removed.size() != rs.size()) {
        Mismatch("side ComputeDelta disagrees with the committed delta");
      }
      tracer_.Count("side.seal_ms", seal_ms);
      tracer_.Count("side.build_base_ms", build_ms);
      tracer_.Count("side.diff_ms", diff_ms);
      tracer_.Count("eval.strata", static_cast<double>(es.strata.size()));
      tracer_.Count("eval.rounds", es.total_rounds());
      tracer_.Count("eval.body_matches",
                    static_cast<double>(es.total_body_matches()));
      tracer_.Count("eval.updates_derived",
                    static_cast<double>(es.total_t1_updates()));
      tracer_.Count("eval.versions_materialized",
                    static_cast<double>(es.versions_materialized));
      tracer_.Count("eval.index_probes",
                    static_cast<double>(es.total_index_probes()));
      tracer_.Count("eval.index_hits",
                    static_cast<double>(es.total_index_hits()));
    }
  }
  timer.Resume();
  const bool ok = stmt.ok();
  const std::string error = ok ? std::string() : stmt.error();
  stmt.Release();
  const double ms = timer.Stop();
  if (!ok) return Failed("commit", error);
  counts.wal_bytes = FileSize(wal) - wal_before;
  const ViewTotals views_after = Views();
  counts.view_delta_facts = views_after.delta_facts - views_before.delta_facts;
  if (tracer_.enabled()) {
    const RegistryReading r = registry_.Read();
    tracer_.Count("reg.evaluate_us", r.evaluate_us - reg_before.evaluate_us);
    tracer_.Count("reg.wal_append_us",
                  r.wal_append_us - reg_before.wal_append_us);
    tracer_.Count("reg.install_us", r.install_us - reg_before.install_us);
    tracer_.Count("reg.fanout_us", r.fanout_us - reg_before.fanout_us);
    tracer_.Count("reg.analysis_us", r.analysis_us - reg_before.analysis_us);
    tracer_.Count("reg.delta_facts", r.delta_facts - reg_before.delta_facts);
    tracer_.Count("wal_bytes", static_cast<double>(counts.wal_bytes));
    tracer_.Count("views.delta_facts", counts.view_delta_facts);
    tracer_.Count("views.facts_added", views_after.added - views_before.added);
    tracer_.Count("views.facts_removed",
                  views_after.removed - views_before.removed);
    tracer_.Count("views.overdeleted",
                  views_after.overdeleted - views_before.overdeleted);
    tracer_.Count("views.rederived",
                  views_after.rederived - views_before.rederived);
  }
  Record("commit", ms, counts, commit_ms_);
  return true;
}

template <typename Check>
bool Bench::Read(const char* view, Check&& check) {
  if (recording_) ++attempted_;
  OpTimer timer(tracer_, "read");
  Traced(tracer_, "Session::Refresh", [&] { session_->Refresh(); });
  Executed stmt(tracer_, *session_, std::string("QUERY ") + view);
  timer.Pause();
  OpCounts counts{};
  if (stmt.ok()) {
    check(stmt.result());
    counts.rows = stmt.result().size();
  }
  timer.Resume();
  const bool ok = stmt.ok();
  const std::string error = ok ? std::string() : stmt.error();
  stmt.Release();
  const double ms = timer.Stop();
  if (!ok) return Failed("read", error);
  if (tracer_.enabled()) tracer_.Count("rows", static_cast<double>(counts.rows));
  Record("read", ms, counts, read_ms_);
  return true;
}

template <typename Check>
bool Bench::Query(const std::string& text, Check&& check) {
  const RegistryReading reg_before = registry_.Read();
  if (recording_) ++attempted_;
  OpTimer timer(tracer_, "query");
  Executed stmt(tracer_, *session_, text);
  timer.Pause();
  OpCounts counts{};
  if (stmt.ok()) {
    check(stmt.result());
    counts.rows = stmt.result().size();
    if (tracer_.enabled()) {
      const verso::QueryStats& qs = *stmt.result().query_stats();
      tracer_.Count("query.rounds", qs.rounds);
      tracer_.Count("query.derived_facts",
                    static_cast<double>(qs.derived_facts));
      tracer_.Count("query.index_probes", static_cast<double>(qs.index_probes));
    }
  }
  timer.Resume();
  const bool ok = stmt.ok();
  const std::string error = ok ? std::string() : stmt.error();
  stmt.Release();
  const double ms = timer.Stop();
  if (!ok) return Failed("query", error);
  if (tracer_.enabled()) {
    const RegistryReading r = registry_.Read();
    tracer_.Count("reg.analysis_us", r.analysis_us - reg_before.analysis_us);
    tracer_.Count("reg.query_eval_us",
                  r.query_eval_us - reg_before.query_eval_us);
  }
  Record("query", ms, counts, query_ms_);
  return true;
}

bool Bench::Failed(const char* op, const std::string& error) {
  if (recording_) ++failed_;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", op, error.c_str());
  return false;
}

bool Bench::Checkpoint() {
  const RegistryReading reg_before = registry_.Read();
  if (recording_) ++attempted_;
  OpTimer timer(tracer_, "checkpoint");
  const verso::Status s = Traced(tracer_, "Connection::Checkpoint",
                                 [&] { return conn_->Checkpoint(); });
  const double ms = timer.Stop();
  if (!s.ok()) return Failed("checkpoint", s.ToString());
  const int64_t store_bytes = FileSize(opt_.dir + "/store.img");
  const size_t facts = conn_->database().current().fact_count();
  if (store_bytes <= 0 || facts == 0) Mismatch("checkpoint left no store");
  if (recording_) {
    store_bytes_per_fact_ =
        static_cast<double>(store_bytes) / static_cast<double>(facts);
  }
  if (tracer_.enabled()) {
    const RegistryReading r = registry_.Read();
    tracer_.Count("reg.store_puts", r.store_puts - reg_before.store_puts);
    tracer_.Count("store.file_bytes", static_cast<double>(store_bytes));
  }
  Record("checkpoint", ms, OpCounts{}, checkpoint_ms_);
  return true;
}

void Bench::Reopen() {
  session_.reset();
  conn_.reset();
  const RegistryReading reg_before = registry_.Read();
  if (recording_) ++attempted_;
  OpTimer timer(tracer_, "reopen");
  verso::Result<std::unique_ptr<verso::Connection>> conn =
      Traced(tracer_, "Connection::Open",
             [&] { return verso::Connection::Open(opt_.dir); });
  if (!conn.ok()) Fatal("reopen failed: " + conn.status().ToString());
  conn_ = std::move(conn).value();
  session_ = Traced(tracer_, "Connection::OpenSession",
                    [&] { return conn_->OpenSession(); });
  CreateViews();
  // The reopen ends when the first view read has been answered.
  Executed stmt(tracer_, *session_, std::string("QUERY ") + views_.front());
  timer.Pause();
  if (!stmt.ok()) Fatal("first read after reopen failed: " + stmt.error());
  if (bulk_) {
    CheckChain(stmt.result());
  } else {
    CheckRich(stmt.result());
  }
  timer.Resume();
  stmt.Release();
  const double ms = timer.Stop();
  const RegistryReading r = registry_.Read();
  OpCounts counts{};
  counts.replayed_frames = r.replayed_frames - reg_before.replayed_frames;
  if (tracer_.enabled()) {
    tracer_.Count("replayed_frames",
                  static_cast<double>(counts.replayed_frames));
    tracer_.Count("reg.store_keys", r.store_keys - reg_before.store_keys);
    tracer_.Count("reg.analysis_us", r.analysis_us - reg_before.analysis_us);
  }
  Record("reopen", ms, counts, reopen_ms_);
}

void Bench::CreateViews() {
  for (const char* view : views_) {
    const char* ddl = std::string(view) == "rich" ? kRichView : kChainView;
    const verso::Status s = Traced(tracer_, "CREATE VIEW", [&] {
      verso::Result<verso::ResultSet> rs = session_->Execute(ddl);
      return rs.ok() ? verso::Status::Ok() : rs.status();
    });
    if (!s.ok()) Fatal("CREATE VIEW failed: " + s.ToString());
  }
}

// -- output checks ------------------------------------------------------

void Bench::CheckRich(verso::ResultSet& rs) {
  if (rs.size() != high_set_.size()) {
    Mismatch("rich has " + std::to_string(rs.size()) + " rows, model " +
             std::to_string(high_set_.size()));
  }
  rs.Rewind();
  while (rs.Next()) {
    const int i = EmpIndex(rs.object());
    if (!high_[i] || rs.method() != "rich" || rs.result_text() != "yes") {
      Mismatch("rich row " + rs.RowToString());
    }
  }
}

void Bench::CheckPay(verso::ResultSet& rs, int i) {
  if (rs.size() != 1 || !rs.Next() || rs.object() != Emp(i) ||
      rs.method() != "pay" || rs.result_text() != std::to_string(sal_[i])) {
    Mismatch("pay of " + Emp(i) + ": expected " + std::to_string(sal_[i]));
  }
}

void Bench::CheckUp(verso::ResultSet& rs, int i) {
  std::vector<int> up;
  rs.Rewind();
  while (rs.Next()) {
    if (rs.object() != Emp(i) || rs.method() != "up") {
      Mismatch("up row " + rs.RowToString());
    }
    up.push_back(EmpIndex(rs.result_text()));
  }
  std::sort(up.begin(), up.end());
  if (up != Ancestors(moved_ ? moved_boss_ : start_boss_, i)) {
    Mismatch("ancestors of " + Emp(i));
  }
}

void Bench::CheckChain(verso::ResultSet& rs) {
  if (RowPairs(rs, "chain") != (moved_ ? moved_closure_ : start_closure_)) {
    Mismatch("chain differs from the model's boss closure");
  }
}

verso::ResultSet Bench::RunUntimed(const char* text) {
  verso::Result<verso::ResultSet> rs = session_->Execute(text);
  if (!rs.ok()) Fatal(std::string("oracle query failed: ") + text);
  return std::move(rs).value();
}

std::string Bench::RenderView(const char* view) {
  verso::ResultSet rs = RunUntimed((std::string("QUERY ") + view).c_str());
  return RenderRows(rs);
}

void Bench::CheckRecovered(const std::string& base, const std::string& chain) {
  if (RenderBase() != base) Mismatch("recovered base differs");
  if (RenderView("chain") != chain) Mismatch("re-created chain differs");
}

// -- workloads ----------------------------------------------------------

void Bench::PointRound(Rng& rng, bool up) {
  // Toggle one employee across the rich threshold: even rounds raise a
  // low earner, odd rounds lower a high earner, so every commit has the
  // same shape and `rich` alternates between two sizes.
  std::vector<int>& from = up ? low_set_ : high_set_;
  const int i = from[rng.Below(from.size())];
  const int64_t target = up ? ent_.high[i] : ent_.low[i];
  if (Commit(SetSalaryText(i, target), 2)) {
    std::vector<int>& to = up ? high_set_ : low_set_;
    const int last = from.back();
    from[set_pos_[i]] = last;
    set_pos_[last] = set_pos_[i];
    from.pop_back();
    set_pos_[i] = static_cast<int>(to.size());
    to.push_back(i);
    high_[i] = up;
    sal_[i] = target;
  }
  Read("rich", [&](verso::ResultSet& rs) { CheckRich(rs); });
  Query(PayQueryText(i), [&](verso::ResultSet& rs) { CheckPay(rs, i); });
}

void Bench::BulkRound(Rng& rng, int sign) {
  // Rows: every salary changes; every mover swaps boss and alt.
  const size_t expected = 2 * static_cast<size_t>(ent_.n) + 4 * movers_;
  if (Commit(BulkText(sign), expected)) {
    for (int i = 0; i < ent_.n; ++i) {
      sal_[i] += sign * (ent_.mgr[i] ? kBulkMgrRaise : kBulkRaise);
    }
    moved_ = !moved_;
  }
  Read("chain", [&](verso::ResultSet& rs) { CheckChain(rs); });
  // A recursive point query from the bottom level (depth ancestors).
  const int i = leaves_[rng.Below(leaves_.size())];
  Query(UpQueryText(i), [&](verso::ResultSet& rs) { CheckUp(rs, i); });
}

void Bench::BulkOracles() {
  // After each mirrored pair the base is back at its post-setup state.
  if (moved_) Mismatch("bulk pair did not return to the start state");
  if (RenderBase() != expect_base_) {
    Mismatch("base differs after a mirrored pair");
  }
  verso::ResultSet chain = RunUntimed(kChainDerive);
  if (RowPairs(chain, "chain") != start_closure_) {
    Mismatch("from-scratch chain differs from the model");
  }
}

void Bench::PointOracles() {
  // Every salary against the model, and `rich` against a from-scratch
  // derive of its rule on the same snapshot.
  session_->Refresh();
  verso::ResultSet pay = RunUntimed(kPayDerive);
  if (pay.size() != static_cast<size_t>(ent_.n)) Mismatch("pay row count");
  while (pay.Next()) {
    const int i = EmpIndex(pay.object());
    if (pay.result_text() != std::to_string(sal_[i])) {
      Mismatch("salary of " + Emp(i));
    }
  }
  verso::ResultSet derived = RunUntimed(kRichDerive);
  verso::ResultSet view = RunUntimed("QUERY rich");
  if (RenderRows(derived) != RenderRows(view)) {
    Mismatch("rich view differs from a from-scratch derive");
  }
  CheckRich(view);
}

void Bench::Round(Rng& rng, int r) {
  if (bulk_) {
    BulkRound(rng, r % 2 == 0 ? 1 : -1);
    if (r % 2 == 1) BulkOracles();
  } else {
    PointRound(rng, r % 2 == 0);
  }
}

void Bench::Cycle(Rng& rng) {
  // Every workload repeats one cycle: checkpoint, a fixed number of
  // rounds left in the WAL, close, reopen (recovery, view re-creation,
  // first view read), and a check of the recovered state. The probe runs
  // after every round, between ops (in the warm-up cycle too, which
  // scales set-up time).
  std::vector<double>* series[] = {&commit_ms_, &read_ms_, &query_ms_,
                                   &checkpoint_ms_, &reopen_ms_};
  size_t marks[5];
  for (int k = 0; k < 5; ++k) marks[k] = series[k]->size();
  std::vector<double> probe;
  Checkpoint();
  for (int r = 0; r < rounds_per_cycle_; ++r) {
    Round(rng, r);
    const int64_t t = NowNs();
    probe.push_back(probe_.SampleMs());
    probe_ns_ += NowNs() - t;
  }
  const std::string base = RenderBase();
  const std::string chain = RenderView("chain");
  Reopen();
  CheckRecovered(base, chain);
  cycle_scale_ = kProbeNominalMs / Percentile(probe, 0.5);
  if (!recording_) return;
  // This cycle's latencies at the nominal host speed.
  for (int k = 0; k < 5; ++k) {
    std::vector<double>& s = *series[k];
    for (size_t i = marks[k]; i < s.size(); ++i) s[i] *= cycle_scale_;
  }
  probe_ms_.insert(probe_ms_.end(), probe.begin(), probe.end());
}

void Bench::SetupOnce() {
  session_.reset();
  conn_.reset();
  std::error_code ec;
  fs::remove_all(opt_.dir, ec);
  fs::create_directories(opt_.dir, ec);
  if (ec) Fatal("cannot create " + opt_.dir);
  ResetModel();

  verso::Result<std::unique_ptr<verso::Connection>> conn =
      verso::Connection::Open(opt_.dir);
  if (!conn.ok()) Fatal("open failed: " + conn.status().ToString());
  conn_ = std::move(conn).value();
  verso::Status imported = conn_->ImportText(base_text_);
  if (!imported.ok()) Fatal("import failed: " + imported.ToString());
  session_ = conn_->OpenSession();
  CreateViews();
  if (!Checkpoint()) Fatal("first checkpoint failed");
  session_->Refresh();
  expect_base_ = RenderBase();

  // Warm-up: one whole cycle, from its own seed stream. It ends with a
  // reopen, as every loop cycle does: a base recovered from the store is
  // laid out in memory differently from the imported one, and its ops run
  // at a different speed, so the loop starts in the state it stays in.
  Rng warm(opt_.seed ^ 0x5eed5eedULL);
  Cycle(warm);
}

void Bench::StationarityGuard() const {
  // Sum each per-op work count over the first and the last tenth of the
  // cycles; a workload whose cost drifts (growing numbers, a shrinking
  // base, a growing WAL suffix) fails here.
  static const char* kNames[] = {"core.rounds", "storage.delta_facts",
                                 "storage.wal_bytes", "views.delta_facts",
                                 "storage.replayed_frames"};
  int cycles = 0;
  for (const OpCounts& c : counts_) cycles = std::max(cycles, c.cycle + 1);
  const int k = std::max(1, cycles / 10);
  uint64_t first[5] = {}, last[5] = {};
  for (const OpCounts& c : counts_) {
    const uint64_t v[5] = {c.rounds, c.delta_facts,
                           static_cast<uint64_t>(c.wal_bytes),
                           c.view_delta_facts, c.replayed_frames};
    for (int m = 0; m < 5; ++m) {
      if (c.cycle < k) first[m] += v[m];
      if (c.cycle >= cycles - k) last[m] += v[m];
    }
  }
  for (int m = 0; m < 5; ++m) {
    if (first[m] != last[m]) {
      Mismatch(std::string("stationarity guard: ") + kNames[m] +
               " differs between the first and last tenth of the cycles (" +
               std::to_string(first[m]) + " vs " + std::to_string(last[m]) +
               ")");
    }
  }
}

void Bench::WriteCounts() const {
  std::FILE* f = std::fopen(opt_.counts_out.c_str(), "w");
  if (f == nullptr) Fatal("cannot write " + opt_.counts_out);
  for (const OpCounts& c : counts_) {
    std::fprintf(f,
                 "%s cycle=%d rounds=%llu delta_facts=%llu wal_bytes=%lld "
                 "view_delta_facts=%llu replayed_frames=%llu rows=%llu\n",
                 c.kind, c.cycle, static_cast<unsigned long long>(c.rounds),
                 static_cast<unsigned long long>(c.delta_facts),
                 static_cast<long long>(c.wal_bytes),
                 static_cast<unsigned long long>(c.view_delta_facts),
                 static_cast<unsigned long long>(c.replayed_frames),
                 static_cast<unsigned long long>(c.rows));
  }
  std::fprintf(f, "store_bytes_per_fact=%.6f\n", store_bytes_per_fact_);
  if (std::fclose(f) != 0) Fatal("cannot write " + opt_.counts_out);
}

void Bench::PrintResult(double setup_s, double loop_s, int cycles) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  // Ops per second of (scaled) op time.
  double op_ms = 0;
  size_t ops = 0;
  for (const std::vector<double>* s :
       {&commit_ms_, &read_ms_, &query_ms_, &checkpoint_ms_, &reopen_ms_}) {
    for (double ms : *s) op_ms += ms;
    ops += s->size();
  }
  double commits = 0;
  int64_t wal_bytes = 0;
  for (const OpCounts& c : counts_) {
    if (std::string_view(c.kind) != "commit") continue;
    ++commits;
    wal_bytes += c.wal_bytes;
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"attempted\":%llu,\"failed\":%llu,"
      "\"loop_s\":%.6f,\"cycles\":%d,\"probe_ms\":%.6f,"
      "\"samples\":{\"setup\":%d,\"commit\":%zu,\"read\":%zu,\"query\":%zu,"
      "\"checkpoint\":%zu,\"reopen\":%zu},"
      "\"metrics\":{\"setup_s\":%.9g,\"commit_p50_ms\":%.9g,"
      "\"commit_p95_ms\":%.9g,\"read_p50_ms\":%.9g,\"read_p95_ms\":%.9g,"
      "\"query_p50_ms\":%.9g,\"query_p95_ms\":%.9g,\"ops_per_s\":%.9g,"
      "\"checkpoint_p50_ms\":%.9g,\"reopen_p50_ms\":%.9g,"
      "\"wal_bytes_per_commit\":%.9g,\"store_bytes_per_fact\":%.9g,"
      "\"peak_rss_mb\":%.9g,\"error_rate\":%.9g}}\n",
      opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), loop_s, cycles,
      Percentile(probe_ms_, 0.5), opt_.setups,
      commit_ms_.size(), read_ms_.size(), query_ms_.size(),
      checkpoint_ms_.size(), reopen_ms_.size(), setup_s,
      Percentile(commit_ms_, 0.5), Percentile(commit_ms_, 0.95),
      Percentile(read_ms_, 0.5), Percentile(read_ms_, 0.95),
      Percentile(query_ms_, 0.5), Percentile(query_ms_, 0.95),
      op_ms > 0 ? static_cast<double>(ops) * 1000.0 / op_ms : 0.0,
      Percentile(checkpoint_ms_, 0.5), Percentile(reopen_ms_, 0.5),
      commits > 0 ? static_cast<double>(wal_bytes) / commits : 0.0,
      store_bytes_per_fact_, peak_rss_mb,
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0);
}

int Bench::Run() {
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %d employees, hierarchy depth %d, "
               "%zu movers, %zu departments of %zu, %zu base bytes\n",
               opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
               ent_.n, ent_.depth, movers_, ent_.members.size(),
               ent_.members[0].size(), base_text_.size());
  // Set-up, several times from scratch, before the loop (the last one's
  // state is what the loop runs on) and after it, so that setup_s, their
  // median, does not rest on one moment's host speed. Each one, less its
  // probe time, is scaled by its warm-up cycle's probe times.
  std::vector<double> setup_s;
  auto setup = [&] {
    const int64_t probe_before = probe_ns_;
    const int64_t t = NowNs();
    SetupOnce();
    const int64_t ns = NowNs() - t - (probe_ns_ - probe_before);
    setup_s.push_back(static_cast<double>(ns) / 1e9 * cycle_scale_);
  };
  for (int s = 0; s < (opt_.setups + 1) / 2; ++s) setup();
  if (bulk_) {
    BulkOracles();
  } else {
    PointOracles();
  }

  recording_ = true;
  tracer_.set_measuring(true);
  Rng rng(opt_.seed);
  const int64_t loop_start = NowNs();
  const int64_t loop_budget = static_cast<int64_t>(opt_.seconds * 1e9);
  int cycles = 0;
  for (;; ++cycles) {
    if (opt_.cycles > 0 ? cycles >= opt_.cycles
                        : NowNs() - loop_start >= loop_budget) {
      break;
    }
    cycle_ = cycles;
    Cycle(rng);
  }
  const double loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  recording_ = false;
  tracer_.set_measuring(false);
  if (!bulk_) PointOracles();

  StationarityGuard();
  if (!opt_.counts_out.empty()) WriteCounts();
  if (!opt_.trace_out.empty() &&
      !tracer_.Write(opt_.trace_out, opt_.workload)) {
    Fatal("cannot write " + opt_.trace_out);
  }
  for (int s = 0; s < opt_.setups / 2; ++s) setup();
  session_.reset();
  conn_.reset();
  PrintResult(Percentile(setup_s, 0.5), loop_s, cycles);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--dir") {
      opt.dir = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--counts-out") {
      opt.counts_out = value();
    } else if (arg == "--cycles") {
      opt.cycles = std::atoi(value().c_str());
    } else if (arg == "--setups") {
      opt.setups = std::max(1, std::atoi(value().c_str()));
    } else if (arg == "--small") {
      opt.small = true;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && !opt.dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --dir D "
                 "[--trace-out F] [--counts-out F] [--cycles N] [--small] "
                 "[--setups N]\n");
    return 1;
  }
  perfbench::Bench bench(opt);
  return bench.Run();
}
