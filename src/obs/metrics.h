#ifndef VERSO_OBS_METRICS_H_
#define VERSO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"

namespace verso {

/// Always-on operational metrics (ROADMAP: "always-on telemetry", the
/// nano-node lib/stats shape). One process-wide MetricsRegistry holds
/// named monotonic counters, gauges, and fixed-bucket latency histograms;
/// every layer (commit path, sessions, views, storage faults, workloads,
/// benches) reports into it through preregistered handles, and clients
/// read it back through `QUERY METRICS` / Connection::DumpMetrics.
///
/// Cost model — cheap enough to stay on in Release:
///   * event paths are one relaxed atomic load (the enabled flag) plus
///     one or two relaxed fetch_adds — no locks, no map lookups;
///   * handles are preregistered once (GetCounter takes a mutex, so hot
///     paths hold a `Counter&`, never a name);
///   * a PhaseClock reads the registry's Clock once per boundary between
///     consecutive phases (a commit: eight reads for its nine spans), a
///     ScopedTimer twice; with the registry disabled neither reads it at
///     all (the ablation bench/bench_obs.cc measures this difference).
///
/// Registration never unregisters: handles are stable for the registry's
/// lifetime (values live in node-stable maps). Counters are monotonic;
/// Reset() exists for tests and bench ablations only.

class MetricsRegistry;

/// A named monotonic event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> value_{0};
};

/// A named last-value gauge (may go down; may be negative).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram over microsecond samples: bucket 0
/// holds sub-microsecond samples, bucket i >= 1 holds samples in
/// [2^(i-1), 2^i) µs. Quantiles report the upper bound of the bucket the
/// rank falls in, so ValueAtQuantile(q) >= the true quantile and is at
/// most 2x above it — tight enough for p50/p95/p99 trend lines, constant
/// memory, and wait-free recording.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(uint64_t micros) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_micros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }

  /// Upper bound (µs) of the bucket holding the q-quantile sample
  /// (0 < q <= 1); 0 when the histogram is empty.
  uint64_t ValueAtQuantile(double q) const;

  /// Bucket index of a sample: 0 for 0 µs, else floor(log2(µs)) + 1,
  /// clamped to the last bucket.
  static size_t BucketOf(uint64_t micros) {
    if (micros == 0) return 0;
    size_t bits = 64 - static_cast<size_t>(__builtin_clzll(micros));
    return bits < kBuckets ? bits : kBuckets - 1;
  }
  /// Exclusive upper bound (µs) of bucket i (inclusive for the last,
  /// saturated bucket).
  static uint64_t BucketUpperBound(size_t bucket) {
    return bucket >= 63 ? ~0ull : (1ull << bucket);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
};

class MetricsRegistry {
 public:
  /// A fresh, independent registry (unit tests). Production code uses
  /// Global().
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every library layer reports into.
  static MetricsRegistry& Global();

  /// Returns the named metric, registering it on first use. Handles are
  /// stable for the registry's lifetime; preregister them outside hot
  /// paths (registration takes a mutex). A name belongs to exactly one
  /// metric kind for the registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// The ablation switch: while disabled, every Add/Set/Record is a
  /// no-op and timing spans skip their clock reads. Values are retained.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The clock timing spans read; defaults to Clock::Default(). Not
  /// owned; tests install a FakeClock for deterministic histograms.
  Clock* clock() const {
    Clock* c = clock_.load(std::memory_order_relaxed);
    return c != nullptr ? c : Clock::Default();
  }
  void set_clock(Clock* clock) {
    clock_.store(clock, std::memory_order_relaxed);
  }

  /// Zeroes every registered value (names stay registered). Tests and
  /// bench ablations only — production counters are monotonic.
  void Reset();

  /// One row of a metrics snapshot. Histograms expand into five derived
  /// rows: `<name>.count`, `<name>.sum_us`, `<name>.p50_us`,
  /// `<name>.p95_us`, `<name>.p99_us`.
  struct Entry {
    std::string name;
    int64_t value = 0;
  };

  /// A consistent-enough point-in-time read of every registered metric,
  /// sorted by name. (Individual values are relaxed reads — each value
  /// is exact, the set is not a cross-metric atomic cut.)
  std::vector<Entry> Snapshot() const;

  /// Writes `entries` as the stable JSON document clients and CI parse:
  /// a flat, name-sorted object under the "metrics" key plus a format
  /// version tag. Byte-identical for equal snapshots.
  static void WriteJson(const std::vector<Entry>& entries, std::ostream& out);

  /// Snapshot() + WriteJson().
  void DumpJson(std::ostream& out) const;

 private:
  mutable std::mutex mu_;  // registration and snapshot; never event paths
  std::atomic<bool> enabled_{true};
  std::atomic<Clock*> clock_{nullptr};
  // std::map: node-stable addresses AND name-sorted iteration for free.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Times the consecutive phases of one operation with one clock read per
/// phase boundary: the constructor reads the first, and each Lap() reads
/// the next and records the phase that ends there. A span over several
/// phases (Since) ends at the latest boundary without a read of its own.
/// With the registry disabled, no clock is read and nothing recorded.
class PhaseClock {
 public:
  explicit PhaseClock(MetricsRegistry& registry)
      : clock_(registry.enabled() ? registry.clock() : nullptr),
        last_(clock_ != nullptr ? clock_->NowNanos() : 0) {}
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  /// The latest boundary, for a later Since().
  uint64_t mark() const { return last_; }

  /// Ends the current phase here, records it into `phase` and returns
  /// it in µs.
  uint64_t Lap(Histogram& phase) {
    const uint64_t start = last_;
    Tick();
    return Since(start, phase);
  }

  /// A boundary that ends no recorded phase.
  void Tick() {
    if (clock_ != nullptr) last_ = clock_->NowNanos();
  }

  /// Records the time from `mark` to the latest boundary into `span`
  /// and returns it in µs.
  uint64_t Since(uint64_t mark, Histogram& span) const {
    if (clock_ == nullptr) return 0;
    span.Record((last_ - mark) / 1000);
    return (last_ - mark) / 1000;
  }

 private:
  Clock* clock_;
  uint64_t last_;
};

/// Times a span and records it (in µs) into a histogram when destroyed
/// or explicitly stopped: a one-phase PhaseClock.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry& registry, Histogram& hist)
      : phases_(registry), hist_(&hist) {}
  ~ScopedTimer() { Stop(); }

  /// Records the elapsed time (first call only) and returns it in µs.
  uint64_t Stop() {
    if (hist_ == nullptr) return 0;
    Histogram& hist = *hist_;
    hist_ = nullptr;
    return phases_.Lap(hist);
  }

 private:
  PhaseClock phases_;
  Histogram* hist_;
};

}  // namespace verso

#endif  // VERSO_OBS_METRICS_H_
