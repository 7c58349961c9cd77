#pragma once
/// \file reference.hpp
/// \brief A fixed piece of work, independent of the program, that a run
///        times between slices of its run phase to see how fast the machine
///        is running at that moment.
///
/// On a shared host the cores slow down and speed up with the other
/// tenants' load, by up to ±20% for stretches from a second to longer than
/// a whole run, while a compute-only loop keeps its speed within ±4%: what
/// changes is how fast memory beyond the private caches answers.  The
/// program's run phase is made of small allocations and scattered reads,
/// and so is this kernel: churn on 100,000 heap strings, each step reading
/// one string's buffer and replacing it with a fresh allocation.  Timed in
/// a short chunk right after each slice of the run phase, it sees the same
/// phase of the machine as that slice.  Of the kernels tried (pointer
/// chases over 16 and 128 MB, hash-map and tree churn, this one) it tracked
/// the program's round times best, with a correlation of 0.96 over 22
/// rounds of steady_mix.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  /// Wall time of one chunk on the machine the reference figures were
  /// measured on, in a typical phase; a run reports its throughput as if
  /// every chunk had taken this long.
  static constexpr double kNominalChunkS = 0.0018;

  /// Allocates the strings: about 10 MB.
  ReferenceKernel();

  /// Runs one chunk of fixed work; returns its wall time, s.
  double chunk();

 private:
  std::vector<std::string> strings_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
