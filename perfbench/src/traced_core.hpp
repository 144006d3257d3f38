// A core-beaconing driver wired from public calls only, with spans.
//
// It mirrors ctrl::BeaconingSim's constructor and run() step for step (same
// RNG draws, key store, labels, phase offsets, warm-up reset), so its
// outputs equal BeaconingSim's on the same inputs. The difference is that
// every Simulator::run_until, BeaconServer::handle_pcb,
// BeaconServer::on_interval and Network::send call is wrapped in a span.
// Fault scenarios, re-origination and latency metadata are not supported
// (the benchmark's workloads use none of them).
#pragma once

#include <memory>
#include <vector>

#include "core/beaconing_sim.hpp"
#include "crypto/signature.hpp"
#include "simnet/network.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

class TracedCoreSim {
 public:
  TracedCoreSim(const topo::Topology& topology,
                scion::ctrl::BeaconingSimConfig config, SpanRecorder& spans);
  // The servers' callbacks hold `this`.
  TracedCoreSim(const TracedCoreSim&) = delete;
  TracedCoreSim& operator=(const TracedCoreSim&) = delete;

  void run();

  scion::sim::Simulator& simulator() { return sim_; }
  const scion::ctrl::BeaconServer& server(topo::AsIndex as) const {
    return *servers_[as];
  }
  std::size_t server_count() const { return servers_.size(); }

  /// Summed over all servers: for the measured window (the counters are
  /// reset after warm-up, as in BeaconingSim), and for the whole run.
  scion::ctrl::BeaconServerStats aggregate_stats() const;
  scion::ctrl::BeaconServerStats whole_run_stats() const;
  CoreOutputs outputs(const Inputs& inputs);

 private:
  const topo::Topology& topology_;
  scion::ctrl::BeaconingSimConfig config_;
  SpanRecorder& spans_;
  scion::sim::Simulator sim_;
  scion::sim::Network net_;
  std::unique_ptr<scion::crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<scion::ctrl::BeaconServer>> servers_;
  scion::ctrl::BeaconServerStats warmup_stats_;
  std::uint32_t run_until_span_;
  std::uint32_t handle_pcb_span_;
  std::uint32_t on_interval_span_;
  std::uint32_t send_span_;
};

}  // namespace perfbench
