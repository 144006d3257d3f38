#include "traced_core.hpp"

#include <stdexcept>

#include "obs/event_profile.hpp"

namespace perfbench {

namespace ctrl = scion::ctrl;
namespace sim = scion::sim;
namespace util = scion::util;

namespace {

// The labels and seed constants BeaconingSim uses (core/beaconing_sim.cpp).
const scion::obs::EventLabel kPropagateLabel =
    scion::obs::event_label("beacon.propagate");
const scion::obs::EventLabel kIntervalLabel =
    scion::obs::event_label("beacon.interval");
constexpr std::uint64_t kKeyDomainSeed = scion::crypto::kDefaultKeyDomainSeed;
constexpr std::uint64_t kReoriginSeedMix = 0xB5297A4D3C5B9BD5ULL;

void add_stats(ctrl::BeaconServerStats& agg, const ctrl::BeaconServerStats& st) {
  agg.pcbs_received += st.pcbs_received;
  agg.bytes_received += st.bytes_received;
  agg.pcbs_sent += st.pcbs_sent;
  agg.bytes_sent += st.bytes_sent;
  agg.pcbs_originated += st.pcbs_originated;
  agg.loops_dropped += st.loops_dropped;
  agg.verify_failures += st.verify_failures;
  agg.resolve_failures += st.resolve_failures;
  agg.store_rejected += st.store_rejected;
  agg.pcbs_revoked += st.pcbs_revoked;
  agg.pcbs_quarantined += st.pcbs_quarantined;
  agg.pcbs_revalidated += st.pcbs_revalidated;
  agg.pcbs_stale_expired += st.pcbs_stale_expired;
  agg.reoriginations += st.reoriginations;
}

}  // namespace

TracedCoreSim::TracedCoreSim(const topo::Topology& topology,
                             ctrl::BeaconingSimConfig config,
                             SpanRecorder& spans)
    : topology_{topology},
      config_{std::move(config)},
      spans_{spans},
      net_{sim_},
      run_until_span_{spans.name_id("simnet.run_until")},
      handle_pcb_span_{spans.name_id("core.handle_pcb")},
      on_interval_span_{spans.name_id("core.on_interval")},
      send_span_{spans.name_id("simnet.send")} {
  if (!config_.faults.empty() || config_.server.reorigination.enabled ||
      config_.server.include_latency_metadata) {
    throw std::invalid_argument(
        "TracedCoreSim runs no faults, re-origination or latency metadata");
  }
  util::Rng rng{config_.seed};
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    net_.add_node(topology_.as_id(i).to_string());
  }
  for (topo::LinkIndex l = 0; l < topology_.link_count(); ++l) {
    const topo::Link& link = topology_.link(l);
    const auto latency = util::Duration::nanoseconds(rng.uniform_int(
        config_.min_latency.ns(), config_.max_latency.ns()));
    net_.add_channel(sim::NodeId{link.a}, sim::NodeId{link.b}, latency);
  }

  keys_ = std::make_unique<scion::crypto::KeyStore>(kKeyDomainSeed);
  ctrl::BeaconServerConfig server_config = config_.server;
  if (server_config.backoff_seed == 0) {
    server_config.backoff_seed = config_.seed ^ kReoriginSeedMix;
  }
  servers_.reserve(topology_.as_count());
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    auto send = [this, i](topo::LinkIndex egress, const ctrl::PcbRef& pcb) {
      SpanRecorder::Scope span{spans_, send_span_};
      net_.send(sim::ChannelId{egress}, sim::NodeId{i}, pcb->wire_size(), pcb,
                kPropagateLabel);
    };
    servers_.push_back(std::make_unique<ctrl::BeaconServer>(
        topology_, i, server_config, *keys_, kKeyDomainSeed, std::move(send)));
  }
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    net_.set_handler(sim::NodeId{i}, [this, i](const sim::Message& msg) {
      SpanRecorder::Scope span{spans_, handle_pcb_span_};
      servers_[i]->handle_pcb(msg.payload.get<ctrl::PcbRef>(),
                              msg.channel.value(), sim_.now());
    });
  }
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    const auto offset = util::Duration::nanoseconds(
        rng.uniform_int(0, config_.server.interval.ns() - 1));
    sim_.schedule_periodic(util::TimePoint::origin() + offset,
                           config_.server.interval, kIntervalLabel, [this, i] {
                             SpanRecorder::Scope span{spans_, on_interval_span_};
                             servers_[i]->on_interval(sim_.now());
                           });
  }
}

void TracedCoreSim::run() {
  if (config_.warmup > util::Duration::zero()) {
    {
      SpanRecorder::Scope span{spans_, run_until_span_};
      sim_.run_until(util::TimePoint::origin() + config_.warmup);
    }
    warmup_stats_ = aggregate_stats();
    net_.reset_stats();
    for (const auto& server : servers_) server->reset_stats();
  }
  SpanRecorder::Scope span{spans_, run_until_span_};
  sim_.run_until(util::TimePoint::origin() + config_.warmup +
                 config_.sim_duration);
}


ctrl::BeaconServerStats TracedCoreSim::aggregate_stats() const {
  ctrl::BeaconServerStats agg;
  for (const auto& s : servers_) add_stats(agg, s->stats());
  return agg;
}

ctrl::BeaconServerStats TracedCoreSim::whole_run_stats() const {
  ctrl::BeaconServerStats agg = warmup_stats_;
  add_stats(agg, aggregate_stats());
  return agg;
}

CoreOutputs TracedCoreSim::outputs(const Inputs& inputs) {
  CoreOutputs out;
  out.stats = aggregate_stats();
  for (const topo::AsIndex m : core_monitors(inputs)) {
    out.monitor_bytes.push_back(servers_[m]->stats().bytes_received.value());
  }
  out.total_bytes = net_.total_bytes_all().value();
  out.events = sim_.events_processed();
  for (const auto& server : servers_) out.stores += store_digest(server->store());
  return out;
}

}  // namespace perfbench
