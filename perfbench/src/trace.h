#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

// Op timing and the traced run's span recorder. Every client operation is
// timed by an OpTimer in every run; only a traced run (--trace 1) also
// records spans (name, start, end, parent span, op id) around each call
// the benchmark makes into the library, plus per-op counts, all kept in
// memory and written as JSON lines at exit.
namespace perfbench {

int64_t NowNs();

class Tracer {
 public:
  explicit Tracer(bool traced) : traced_(traced) {}
  /// True while a traced run measures (set-up and warm-up are not traced).
  bool enabled() const { return traced_ && measuring_; }
  void set_measuring(bool on) { measuring_ = on; }

  /// Opens an op's root span; spans and counts until EndOp belong to it.
  void BeginOp(const char* kind, int64_t start_ns);
  /// Closes the root span. `paused_ns` is the time spent checking outputs
  /// inside the op, which its latency excludes.
  void EndOp(int64_t end_ns, int64_t paused_ns);
  /// A child span of the open op.
  void Span(const char* name, int64_t start_ns, int64_t end_ns);
  /// A count of the open op, or of the last closed one.
  void Count(const char* name, double value);

  /// Writes every op and span as one JSON object per line.
  bool Write(const std::string& path, const std::string& workload) const;

 private:
  struct SpanRec {
    uint32_t id;
    uint32_t op;
    uint32_t parent;  // 0: the op's root span
    const char* name;
    int64_t start;
    int64_t end;
  };
  struct OpRec {
    uint32_t id;
    uint32_t span;
    const char* kind;
    int64_t start;
    int64_t end = 0;
    int64_t paused = 0;
    std::vector<std::pair<const char*, double>> counts;
  };

  bool traced_;
  bool measuring_ = false;
  bool open_ = false;
  std::vector<SpanRec> spans_;
  std::vector<OpRec> ops_;
};

/// Times one client operation: latency is Stop() - start minus the
/// Pause()..Resume() intervals in which the benchmark checks outputs.
class OpTimer {
 public:
  OpTimer(Tracer& tracer, const char* kind)
      : tracer_(tracer), start_(NowNs()) {
    if (tracer_.enabled()) tracer_.BeginOp(kind, start_);
  }
  void Pause() { pause_start_ = NowNs(); }
  void Resume() { paused_ += NowNs() - pause_start_; }
  /// Ends the op; returns its latency in ms.
  double Stop() {
    const int64_t end = NowNs();
    if (tracer_.enabled()) tracer_.EndOp(end, paused_);
    return static_cast<double>(end - start_ - paused_) / 1e6;
  }

 private:
  Tracer& tracer_;
  int64_t start_;
  int64_t pause_start_ = 0;
  int64_t paused_ = 0;
};

/// Runs fn(), wrapped in a span named `name` when tracing.
template <typename Fn>
decltype(auto) Traced(Tracer& tracer, const char* name, Fn&& fn) {
  if (!tracer.enabled()) return fn();
  const int64_t start = NowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer.Span(name, start, NowNs());
  } else {
    auto result = fn();
    tracer.Span(name, start, NowNs());
    return result;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
