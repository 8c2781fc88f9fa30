#pragma once
// How fast the host runs right now, measured with a fixed reference
// computation that belongs to the benchmark and never calls into src/.
//
// On a shared host the speed of a vCPU swings by a factor of two within
// milliseconds and drifts by 20-40% over tens of seconds, longer than one
// run, so neither best-of-rounds nor medians remove it. The workloads
// therefore sample the reference on the thread (and CPU) that does their
// work, between the stretches they time, and report each stretch scaled to
// a reference-speed host:
//
//   reported = measured / mean slowdown of the samples on either side
//
// where a sample's slowdown is its time over the reference's nominal time.
// The reference does the kinds of work the workloads do. Its core part
// runs dense floating-point pivots, tokenizes text with hash-table
// look-ups and runs the scalar, branchy ratio test of a simplex pivot, on
// about 110 KiB that stay in the core's own caches. The memory part follows
// a random cycle of dependent loads through 4 MiB, past the core's L2. A
// change to src/ cannot move the reference, so it still shows in full.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  enum class Mix {
    kCore,           // in-cache compute (DSE, the synth flow)
    kCoreAndMemory,  // plus dependent loads through memory (the daemon)
  };

  explicit HostSpeed(Mix mix = Mix::kCore);

  /// Runs the reference once and returns its slowdown: its time over the
  /// nominal time of `mix` (README.md), 1 on the host the benchmark was
  /// written on when it was quiet, 1.3 on a host 30% slower.
  double sample();

  /// The median slowdown of `count` new samples.
  double slowdown(int count);

  /// Every sample taken so far, and those from index `first` on.
  const std::vector<double>& samples() const { return samples_; }
  std::span<const double> samples_since(std::size_t first) const {
    return std::span<const double>(samples_).subspan(first);
  }

 private:
  Mix mix_;
  std::vector<double> matrix_;
  std::vector<double> work_;
  std::vector<char> text_;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> chain_;  // Mix::kCoreAndMemory only
  std::uint64_t sink_ = 0;
  std::vector<double> samples_;
};

}  // namespace perfbench
