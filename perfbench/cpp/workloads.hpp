#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads.  Each runs in whole rounds: one round
///        builds a deployment, drives a fixed number of operations through
///        the program's public API, checks the outputs and tears it down.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "reference.hpp"
#include "report.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::shard {
class ShardedCluster;
}

namespace perfbench {

using idea::FileId;
using idea::SimDuration;
using idea::SimTime;

struct RoundResult {
  double setup_s = 0.0;  ///< Wall time to construct and place.
  /// Wall time of the run phase, with the benchmark's own checking
  /// subtracted.
  double run_s = 0.0;
  /// Wall time of the reference chunks run after each slice of the run
  /// phase, and how many there were; 0 when the round had no reference.
  double reference_s = 0.0;
  std::uint32_t reference_chunks = 0;
  std::uint64_t run_ops = 0;  ///< Operations completed in the run phase.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Failed correctness checks.
  /// Metrics of the simulated service; a fixed seed repeats them exactly.
  Values sim;
  /// Per-layer metrics: counts, and host times when the round was traced.
  Values layers;
};

struct Workload {
  /// Runs round `index`; spans go to `tracer` when it is not null, and
  /// one chunk of `reference` runs after each slice of the run phase when
  /// it is not null.
  std::function<RoundResult(std::uint32_t index, Tracer*, ReferenceKernel*)>
      round;
  /// Only the set-up a round starts with; returns its wall time, s.
  std::function<double()> setup;
};

/// "steady_mix" or "faults_recovery"; empty functions for other names.
Workload cluster_workload(const std::string& name, std::uint64_t seed);

/// "fleet_parallel".
Workload fleet_workload(std::uint64_t seed);

/// Convergence, timed after the load.  Each of `count` bursts writes every
/// file of `files` at one instant and polls, on the simulated clock, until
/// every replica of every written file agrees; the next burst starts
/// kBurstGap later.  The slowest replication of one burst varies with the
/// latency jitter it happens to draw; the mean over the bursts is a steady
/// figure.
class ConvergenceBursts {
 public:
  static constexpr SimDuration kPoll = idea::msec(1);
  static constexpr SimDuration kBurstGap = idea::msec(20);

  /// `write` issues the benchmark's write of one file; polls are charged
  /// to the benchmark's own layer of `tracer`.
  ConvergenceBursts(idea::shard::ShardedCluster& cluster,
                    std::vector<FileId> files, int count,
                    std::function<void(FileId)> write, Tracer* tracer);

  /// Start the first burst now.  It also waits for `left_behind`, the
  /// files the load may have left unconverged.
  void start(std::vector<FileId> left_behind);
  [[nodiscard]] bool done() const { return done_ == count_; }
  /// Sum over the bursts of the time until every replica agreed.
  [[nodiscard]] SimDuration total() const { return total_; }

 private:
  void burst();
  void poll();

  idea::shard::ShardedCluster& cluster_;
  const std::vector<FileId> files_;
  const int count_;
  const std::function<void(FileId)> write_;
  Tracer* const tracer_;
  std::vector<FileId> unconverged_;
  int done_ = 0;
  SimTime burst_at_ = 0;
  SimDuration total_ = 0;
};

/// Protocol message, wire byte and simulator event counts, as the
/// program's public counters report them.
struct MessageCounts {
  std::uint64_t logical = 0;    ///< Sends accepted by the batching edge.
  std::uint64_t envelopes = 0;  ///< Envelopes it put on the wire.
  SimDuration queue_wait = 0;   ///< Total time sends waited for a flush.
  std::uint64_t wire_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t replicate = 0;  ///< shard.replicate
  std::uint64_t ack = 0;        ///< shard.ack
  std::uint64_t ae = 0;         ///< shard.digest + shard.repair
  std::uint64_t migrate = 0;    ///< shard.migrate
  std::uint64_t detect = 0;     ///< detect.*
  std::uint64_t gossip = 0;     ///< gossip.*
  std::uint64_t ransub = 0;     ///< ransub.*

  MessageCounts& operator+=(const MessageCounts& o);
};

MessageCounts count_messages(idea::shard::ShardedCluster& cluster);

/// The per-layer message metrics of `k`, per operation of the run phase
/// (`ops`) or per write issued in it (`puts`).
void set_message_layers(Values& layers, const MessageCounts& k, double ops,
                        double puts);

}  // namespace perfbench
