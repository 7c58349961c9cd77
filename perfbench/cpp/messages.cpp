#include "shard/sharded_cluster.hpp"
#include "workloads.hpp"

namespace perfbench {

MessageCounts& MessageCounts::operator+=(const MessageCounts& o) {
  logical += o.logical;
  envelopes += o.envelopes;
  queue_wait += o.queue_wait;
  wire_bytes += o.wire_bytes;
  events += o.events;
  replicate += o.replicate;
  ack += o.ack;
  ae += o.ae;
  migrate += o.migrate;
  detect += o.detect;
  gossip += o.gossip;
  ransub += o.ransub;
  return *this;
}

MessageCounts count_messages(idea::shard::ShardedCluster& cluster) {
  const idea::net::BatchingTransport& edge = *cluster.batching();
  const idea::net::MessageCounters& m = edge.counters();
  MessageCounts k;
  k.logical = edge.stats().logical_messages;
  k.envelopes = edge.stats().envelopes;
  k.queue_wait = edge.stats().queue_wait_total;
  k.wire_bytes = cluster.wire_counters().total_bytes();
  k.events = cluster.sim().events_processed();
  k.replicate = m.messages_of("shard.replicate");
  k.ack = m.messages_of("shard.ack");
  k.ae = m.messages_of("shard.digest") + m.messages_of("shard.repair");
  k.migrate = m.messages_of("shard.migrate");
  k.detect = m.messages_with_prefix("detect.");
  k.gossip = m.messages_with_prefix("gossip.");
  k.ransub = m.messages_with_prefix("ransub.");
  return k;
}

void set_message_layers(Values& layers, const MessageCounts& k, double ops,
                        double puts) {
  auto d = [](auto v) { return static_cast<double>(v); };
  layers["sim.events_per_op"] = d(k.events) / ops;
  layers["shard.replicate_msgs_per_put"] = d(k.replicate) / puts;
  layers["shard.ack_msgs_per_put"] = d(k.ack) / puts;
  layers["shard.ae_msgs_per_op"] = d(k.ae) / ops;
  layers["shard.migrate_msgs"] = d(k.migrate);
  layers["detect.msgs_per_op"] = d(k.detect) / ops;
  layers["overlay.gossip_msgs_per_op"] = d(k.gossip) / ops;
  layers["overlay.ransub_msgs_per_op"] = d(k.ransub) / ops;
  layers["net.envelopes_per_op"] = d(k.envelopes) / ops;
  layers["net.batch_factor"] = d(k.logical) / d(k.envelopes);
  layers["net.batch_wait_ms"] = d(k.queue_wait) / d(k.logical) / 1000.0;
}

}  // namespace perfbench
