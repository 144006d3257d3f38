#include "workloads.hpp"

#include <stdexcept>

#include "output_hash.hpp"

namespace perfbench {

namespace ctrl = scion::ctrl;
namespace exp = scion::exp;
namespace util = scion::util;

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w :
       {Workload::kCoreBaseline, Workload::kCoreDiversity, Workload::kBgpChurn}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kCoreBaseline: return "core-baseline";
    case Workload::kCoreDiversity: return "core-diversity";
    case Workload::kBgpChurn: return "bgp-churn";
  }
  return "?";
}

bool is_core(Workload w) { return w != Workload::kBgpChurn; }

WorkloadSpec::WorkloadSpec(Workload w, bool toy) : w_{w} {
  exp::Scale& s = scale_;
  if (is_core(w)) {
    // fig5's core network at 0.125x the default Scale: a 100-AS Internet
    // pruned to 8 core ASes in 2 ISDs, at the generator's most common size
    // of 57 links between 28 AS pairs (means 56.3 and 27.3 over 2000
    // seeds). At 10 cores a diversity run took 0.7 s, and on a shared host
    // the fastest of such repetitions stayed up to 40 % above the
    // undisturbed speed through slow periods.
    s.internet_ases = toy ? 40 : 100;
    s.n_tier1 = toy ? 4 : 8;
    s.core_ases = toy ? 5 : 8;
    s.core_isds = 2;
    core_links_ = toy ? 0 : 57;
    core_pairs_ = 28;
    // One PCB lifetime (6 h) of warm-up, then the measured window. The
    // baseline resends every interval, so 1 h (six intervals) shows its
    // periodic regime; the diversity algorithm sends again only about one
    // PCB lifetime after warm-up, so it keeps fig5's 6 h window.
    s.beaconing_duration = util::Duration::hours(w == Workload::kCoreDiversity ? 6 : 1);
  } else {
    // fig5's BGP run at 0.75x the default Scale: a 600-AS Internet, 110
    // sampled origins, 30 min of convergence, then 1 h of session churn.
    // Convergence is most of the work. At half the default size the
    // sampled origins move allocations by 8 % between seeds.
    s.internet_ases = toy ? 60 : 600;
    s.n_tier1 = toy ? 4 : 8;
    s.bgp_sampled_origins = toy ? 10 : 110;
    s.bgp_churn_window = toy ? util::Duration::minutes(20) : util::Duration::hours(1);
  }
  s.monitors = toy ? 3 : 10;
}

std::uint64_t WorkloadSpec::input_seed(std::uint64_t seed,
                                       std::uint64_t& candidates) const {
  constexpr std::uint64_t kMaxCandidates = 100000;
  candidates = 1;
  if (!is_core(w_) || core_links_ == 0) return seed;
  exp::Scale s = scale_;
  for (std::uint64_t j = 0; j < kMaxCandidates; ++j) {
    s.seed = seed * kMaxCandidates + j;
    candidates = j + 1;
    const topo::Topology core =
        exp::build_core_networks(s, exp::build_internet(s)).scion_view;
    std::size_t pairs = 0;
    for (topo::AsIndex a = 0; a < core.as_count(); ++a) pairs += core.degree(a);
    if (core.link_count() == core_links_ && pairs / 2 == core_pairs_) return s.seed;
  }
  throw std::runtime_error("no core network of the target size");
}

Inputs WorkloadSpec::make_inputs(std::uint64_t seed) const {
  exp::Scale s = scale_;
  s.seed = seed;
  Inputs in;
  in.internet = exp::build_internet(s);
  in.monitors = exp::pick_monitors(in.internet, s.monitors);
  if (is_core(w_)) in.core = exp::build_core_networks(s, in.internet).scion_view;
  return in;
}

ctrl::BeaconingSimConfig WorkloadSpec::core_config(std::uint64_t seed) const {
  // fig5's core run (experiments/overhead_experiment.cpp).
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = w_ == Workload::kCoreDiversity
                                ? ctrl::AlgorithmKind::kDiversity
                                : ctrl::AlgorithmKind::kBaseline;
  config.server.mode = ctrl::BeaconingMode::kCore;
  config.server.storage_limit = 60;
  config.server.dissemination_limit = 5;
  config.server.compute_crypto = false;
  if (w_ == Workload::kCoreDiversity) {
    config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  config.sim_duration = scale_.beaconing_duration;
  config.warmup = config.server.pcb_lifetime;
  config.seed = seed;
  return config;
}

scion::bgp::BgpSimConfig WorkloadSpec::bgp_config(std::uint64_t seed) const {
  scion::bgp::BgpSimConfig config;
  config.sampled_origins = scale_.bgp_sampled_origins;
  config.churn_window = scale_.bgp_churn_window;
  config.seed = seed;
  return config;
}

std::vector<topo::AsIndex> core_monitors(const Inputs& inputs) {
  std::vector<topo::AsIndex> out;
  for (const topo::AsIndex m : inputs.monitors) {
    const topo::AsIndex idx = exp::find_by_as_number(
        inputs.core, inputs.internet.as_id(m).as_number());
    if (idx != topo::kInvalidAsIndex) out.push_back(idx);
  }
  return out;
}

std::vector<std::uint64_t> output_fields(const CoreOutputs& out) {
  const ctrl::BeaconServerStats& s = out.stats;
  std::vector<std::uint64_t> v{
      s.pcbs_received,      s.bytes_received.value(), s.pcbs_sent,
      s.bytes_sent.value(), s.pcbs_originated,        s.loops_dropped,
      s.verify_failures,    s.resolve_failures,       s.store_rejected,
      s.pcbs_revoked,       s.pcbs_quarantined,       s.pcbs_revalidated,
      s.pcbs_stale_expired, s.reoriginations};
  v.insert(v.end(), out.monitor_bytes.begin(), out.monitor_bytes.end());
  v.push_back(out.total_bytes);
  v.push_back(out.events);
  v.push_back(out.stores);
  return v;
}

std::uint64_t store_digest(const ctrl::BeaconStore& store) {
  std::uint64_t sum = 0;
  for (const topo::IsdAsId origin : store.origins()) {
    for (const ctrl::StoredPcb& s : store.for_origin(origin)) {
      OutputHash h;
      h.add(origin.value());
      h.add(s.path_key);
      h.add(static_cast<std::uint64_t>(s.received_at.ns()));
      h.add(s.stale_links);
      sum += h.value();
    }
  }
  return sum;
}

std::string hash_core(const CoreOutputs& out) {
  OutputHash h;
  for (const std::uint64_t v : output_fields(out)) h.add(v);
  return h.hex();
}

CoreOutputs core_outputs(const ctrl::BeaconingSim& sim,
                         scion::sim::Simulator& simulator,
                         const Inputs& inputs) {
  CoreOutputs out;
  out.stats = sim.aggregate_stats();
  for (const topo::AsIndex m : core_monitors(inputs)) {
    out.monitor_bytes.push_back(sim.server(m).stats().bytes_received.value());
  }
  out.total_bytes = sim.total_bytes().value();
  out.events = simulator.events_processed();
  for (topo::AsIndex as = 0; as < sim.topology().as_count(); ++as) {
    out.stores += store_digest(sim.server(as).store());
  }
  return out;
}

std::string hash_bgp(scion::bgp::BgpSim& sim, const Inputs& inputs) {
  OutputHash h;
  for (const topo::AsIndex m : inputs.monitors) {
    const scion::bgp::MonitorAccount& acc = sim.monitor(m);
    h.add(acc.raw_messages);
    h.add(acc.raw_bytes);
  }
  std::uint64_t received = 0;
  std::uint64_t best_changes = 0;
  for (topo::AsIndex as = 0; as < sim.topology().as_count(); ++as) {
    received += sim.speaker(as).updates_received();
    best_changes += sim.speaker(as).best_changes();
  }
  h.add(received);
  h.add(best_changes);
  h.add(sim.total_updates_sent());
  h.add(sim.total_routes_suppressed());
  h.add(sim.total_routes_reused());
  h.add(sim.network().total_bytes_all().value());
  h.add(sim.simulator().events_processed());
  return h.hex();
}

}  // namespace perfbench
