#include "shard/sharded_cluster.hpp"
#include "workloads.hpp"

namespace perfbench {

ConvergenceBursts::ConvergenceBursts(idea::shard::ShardedCluster& cluster,
                                     std::vector<FileId> files, int count,
                                     std::function<void(FileId)> write,
                                     Tracer* tracer)
    : cluster_(cluster), files_(std::move(files)), count_(count),
      write_(std::move(write)), tracer_(tracer) {}

void ConvergenceBursts::start(std::vector<FileId> left_behind) {
  unconverged_ = std::move(left_behind);
  burst();
}

void ConvergenceBursts::burst() {
  for (const FileId f : files_) {
    write_(f);
    unconverged_.push_back(f);
  }
  burst_at_ = cluster_.sim().now();
  cluster_.sim().schedule_at(burst_at_ + kPoll, [this] { poll(); });
}

void ConvergenceBursts::poll() {
  {
    Tracer::Scope s(tracer_, Layer::kBench, "check");
    std::vector<FileId> still;
    for (const FileId f : unconverged_) {
      if (!cluster_.converged(f)) still.push_back(f);
    }
    unconverged_.swap(still);
  }
  const SimTime now = cluster_.sim().now();
  if (!unconverged_.empty()) {
    cluster_.sim().schedule_at(now + kPoll, [this] { poll(); });
    return;
  }
  total_ += now - burst_at_;
  if (++done_ < count_) {
    cluster_.sim().schedule_at(now + kBurstGap, [this] { burst(); });
  }
}

}  // namespace perfbench
