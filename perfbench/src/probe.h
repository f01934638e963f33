#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstddef>
#include <vector>

// Host-speed probe. The benchmark runs on a core shared with other
// tenants of a VM host, and how fast that core runs the library's kind of
// code (allocation, tree descent, pointer chasing, copying) drifts by up
// to 2x over seconds to minutes, so raw op latencies of one program
// differ more between runs than any bound could allow. The probe is a
// fixed piece of that kind of work which shares no code, heap or data
// with the library: it builds a 4096-key std::pmr::map in a private 4 MiB
// arena and copies it. The arena is read once untimed before each sample
// (it is twice the L2, so the map's part of it then sits in L3 whatever
// the library touched before), so the probe's time depends on the host,
// not on the library. Op latencies are scaled by kProbeNominalMs over
// the probe's median time around them, which turns them into latencies
// at one fixed host speed.
namespace perfbench {

/// The probe's time at the host speed latencies are scaled to: about its
/// median on a 4-vCPU Xeon VM (2.1 GHz, 2 MiB L2 per core) in a quiet
/// phase.
constexpr double kProbeNominalMs = 0.8;

class HostProbe {
 public:
  HostProbe();
  /// Reads the arena, then times one map build and copy in it; returns ms.
  double SampleMs();

 private:
  std::vector<std::byte> arena_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
