/// \file checks_test.cpp
/// \brief Planted-fault tests for the benchmark's correctness checks: on a
///        small real deployment each check passes on the program's true
///        output and flags a fault planted into it.
///
///   python3 perfbench/run.py --selftest

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "client/session.hpp"
#include "runtime/fleet.hpp"
#include "shard/sharded_cluster.hpp"

namespace perfbench {
namespace {

using namespace idea;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void expect_clean(const std::string& err, const std::string& what) {
  expect(err.empty(), what + (err.empty() ? "" : " (" + err + ")"));
}

void expect_flagged(const std::string& err, const std::string& what) {
  expect(!err.empty(), what + (err.empty() ? "" : " -> " + err));
}

Contents contents_of(const std::vector<replica::Update>& updates) {
  Contents out;
  for (const replica::Update& u : updates) out.push_back(u.content);
  return out;
}

Contents contents_of(core::IdeaNode& node) {
  Contents out;
  for (const auto& [key, u] : node.store().log()) out.push_back(u.content);
  return out;
}

shard::ShardedClusterConfig small_config() {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.anti_entropy_period = msec(500);
  cfg.replication_resend_timeout = msec(250);
  cfg.sync_sizes();
  return cfg;
}

/// A small cluster driven the way the workloads drive theirs: every write
/// is logged and acknowledged through its handle.
struct Deployment {
  Deployment() : cluster(small_config()), client(cluster) {
    cluster.place(1, kFiles);
    writer = std::make_unique<client::ClientSession>(
        client.session(client::SessionOptions{}));
  }

  void put(FileId file) {
    std::string content = "w" + std::to_string(log.writes().size());
    const std::size_t index = log.issue(file, content, ++tick);
    auto h = writer->put(file, std::move(content), 1.0);
    if (!h.value().applied) log.refuse(index);
    h.on_complete([this, index](const client::OpHandle<client::WriteAck>& d) {
      if (d.ok()) log.ack(index, ++tick);
    });
  }

  static constexpr std::uint32_t kFiles = 12;
  shard::ShardedCluster cluster;
  client::Client client;
  std::unique_ptr<client::ClientSession> writer;
  WriteLog log;
  std::uint64_t tick = 0;
};

void replica_log_checks() {
  Deployment d;
  for (int i = 0; i < 60; ++i) {
    d.put(1 + static_cast<FileId>(i % Deployment::kFiles));
    d.cluster.run_for(msec(7));
  }
  d.cluster.run_for(sec(3));
  expect(d.log.acked() == 60, "all 60 writes acknowledged");

  bool clean = true;
  for (FileId f = 1; f <= Deployment::kFiles; ++f) {
    for (const NodeId m : *d.cluster.members_of(f)) {
      clean = clean && check_replica_log(d.log, f,
                                         contents_of(*d.cluster.replica(f, m)))
                           .empty();
    }
  }
  expect(clean, "replica logs of a converged cluster pass");

  const FileId f = 3;
  const NodeId m = d.cluster.members_of(f)->back();
  const Contents real = contents_of(*d.cluster.replica(f, m));

  Contents dropped = real;
  dropped.erase(dropped.begin() + 1);
  expect_flagged(check_replica_log(d.log, f, dropped),
                 "replica view missing an acknowledged write is flagged");

  Contents doubled = real;
  doubled.push_back(real.front());
  expect_flagged(check_replica_log(d.log, f, doubled),
                 "replica view holding a write twice is flagged");

  Contents foreign = real;
  foreign.push_back(d.log.writes()[d.log.of_file(4).front()].content);
  expect_flagged(check_replica_log(d.log, f, foreign),
                 "replica view holding another file's write is flagged");
}

void read_checks() {
  Deployment d;
  client::ClientSession strong = d.client.session(client::SessionOptions{});
  client::SessionOptions eventual_opt;
  eventual_opt.level = client::ConsistencyLevel::eventual_nearest();
  client::ClientSession eventual = d.client.session(eventual_opt);
  client::SessionOptions quorum_opt;
  quorum_opt.level = client::ConsistencyLevel::quorum();
  client::ClientSession quorum = d.client.session(quorum_opt);

  const FileId f = 5;
  d.put(f);
  d.cluster.run_for(sec(1));
  d.put(f);  // not yet replicated when the reads below are served

  const std::uint64_t tick = ++d.tick;
  const auto s = strong.read(f);
  expect_clean(check_strong_read(d.log, f, tick, contents_of(*s->updates)),
               "strong read returns exactly the writes issued before it");

  // A stale Strong read: served from a replica the second write has not
  // reached yet, as a read routed away from the coordinator would be.
  const NodeId peer = d.cluster.members_of(f)->back();
  const Contents stale = contents_of(*d.cluster.replica(f, peer));
  expect(stale.size() == 1, "the peer lags one write behind");
  expect_flagged(check_strong_read(d.log, f, tick, stale),
                 "stale strong read is flagged");
  (void)eventual.read(f);

  d.cluster.run_for(sec(1));
  const std::uint64_t later = ++d.tick;
  const auto q = quorum.read(f);
  expect_clean(check_quorum_read(d.log, f, later, contents_of(*q->updates)),
               "quorum read holds every acknowledged write");
  Contents missing = contents_of(*q->updates);
  missing.pop_back();
  expect_flagged(check_quorum_read(d.log, f, later, missing),
                 "quorum read missing an acknowledged write is flagged");
}

Digests run_fleet(std::uint64_t seed, std::uint32_t threads,
                  runtime::FleetStats* stats, std::size_t* converged) {
  shard::ShardedClusterConfig cfg = small_config();
  cfg.endpoints = 24;
  cfg.seed = seed;
  cfg.runtime.threads = threads;
  cfg.runtime.segments = 4;
  cfg.sync_sizes();
  runtime::ShardedFleet fleet(cfg);
  fleet.place(1, 60);
  fleet.set_workload(runtime::FleetWorkloadParams{
      .ops_per_endpoint_per_sec = 4.0, .duration = sec(2)});
  fleet.run_for(sec(5));
  if (stats != nullptr) *stats = fleet.stats();
  if (converged != nullptr) *converged = fleet.converged_files();
  return fleet.endpoint_digests();
}

void fleet_checks() {
  runtime::FleetStats stats;
  std::size_t converged = 0;
  const Digests parallel = run_fleet(7, 2, &stats, &converged);
  const Digests oracle = run_fleet(7, 1, nullptr, nullptr);
  expect(stats.remote_ops > 0, "the fleet shipped remote operations");
  expect_clean(check_fleet(stats.remote_ops, stats.replies, converged, 60,
                           parallel, oracle),
               "2-thread fleet matches its threads=1 oracle");

  const Digests other = run_fleet(8, 1, nullptr, nullptr);
  expect_flagged(check_fleet(stats.remote_ops, stats.replies, converged, 60,
                             parallel, other),
                 "fleet digests that diverge from the oracle are flagged");
  Digests flipped = parallel;
  flipped[flipped.size() / 2].second ^= 1;
  expect_flagged(check_fleet(stats.remote_ops, stats.replies, converged, 60,
                             flipped, oracle),
                 "one diverging endpoint digest is flagged");
  expect_flagged(check_fleet(stats.remote_ops, stats.replies - 1, converged,
                             60, parallel, oracle),
                 "a lost remote reply is flagged");
  expect_flagged(check_fleet(stats.remote_ops, stats.replies, converged - 1,
                             60, parallel, oracle),
                 "an unconverged file is flagged");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::replica_log_checks();
  perfbench::read_checks();
  perfbench::fleet_checks();
  std::printf("%s\n", perfbench::failures == 0 ? "all planted faults flagged"
                                               : "FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
