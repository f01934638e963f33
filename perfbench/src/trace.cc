#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::BeginOp(const char* kind, int64_t start_ns) {
  const uint32_t span = static_cast<uint32_t>(spans_.size()) + 1;
  const uint32_t op = static_cast<uint32_t>(ops_.size()) + 1;
  spans_.push_back(SpanRec{span, op, 0, kind, start_ns, 0});
  ops_.push_back(OpRec{op, span, kind, start_ns, 0, 0, {}});
  open_ = true;
}

void Tracer::EndOp(int64_t end_ns, int64_t paused_ns) {
  OpRec& op = ops_.back();
  op.end = end_ns;
  op.paused = paused_ns;
  spans_[op.span - 1].end = end_ns;
  open_ = false;
}

void Tracer::Span(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!open_) return;  // every traced call is made inside an op
  const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back(
      SpanRec{id, ops_.back().id, ops_.back().span, name, start_ns, end_ns});
}

void Tracer::Count(const char* name, double value) {
  if (!ops_.empty()) ops_.back().counts.emplace_back(name, value);
}

bool Tracer::Write(const std::string& path,
                   const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"type\":\"meta\",\"workload\":\"%s\"}\n",
               workload.c_str());
  for (const OpRec& op : ops_) {
    std::fprintf(f,
                 "{\"type\":\"op\",\"op\":%u,\"span\":%u,\"kind\":\"%s\","
                 "\"start\":%lld,\"end\":%lld,\"paused\":%lld,\"counts\":{",
                 op.id, op.span, op.kind, static_cast<long long>(op.start),
                 static_cast<long long>(op.end),
                 static_cast<long long>(op.paused));
    for (size_t i = 0; i < op.counts.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.17g", i == 0 ? "" : ",", op.counts[i].first,
                   op.counts[i].second);
    }
    std::fprintf(f, "}}\n");
  }
  for (const SpanRec& s : spans_) {
    std::fprintf(f,
                 "{\"type\":\"span\",\"span\":%u,\"op\":%u,\"parent\":%u,"
                 "\"name\":\"%s\",\"start\":%lld,\"end\":%lld}\n",
                 s.id, s.op, s.parent, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
