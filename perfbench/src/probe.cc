#include "probe.h"

#include <cstdint>
#include <map>
#include <memory_resource>

#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kArenaBytes = size_t{4} << 20;
constexpr uint32_t kKeys = 4096;

using Map = std::pmr::map<uint32_t, std::pmr::vector<uint32_t>>;

// Keeps the probe's result alive, so its work is not optimized away.
volatile uint64_t g_sink;

}  // namespace

HostProbe::HostProbe() : arena_(kArenaBytes) {}

double HostProbe::SampleMs() {
  uint64_t sum = 0;
  for (size_t i = 0; i < arena_.size(); i += 64) {
    sum += static_cast<uint8_t>(arena_[i]);  // untimed: one load per line
  }
  const int64_t start = NowNs();
  {
    // Every allocation comes from the arena; running out would throw.
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                              std::pmr::null_memory_resource());
    Map map(&arena);
    for (uint32_t i = 0; i < kKeys; ++i) {
      std::pmr::vector<uint32_t>& values = map[(i * 2654435761u) >> 8];
      values.push_back(i);
      values.push_back(i + 1);
      values.push_back(i + 2);
    }
    const Map copy(map, &arena);
    for (const auto& entry : copy) sum += entry.second[1];
  }
  const int64_t end = NowNs();
  g_sink = sum;
  return static_cast<double>(end - start) / 1e6;
}

}  // namespace perfbench
