// The benchmark's workloads: inputs generated from a seed, the simulator
// configuration each one runs, and the deterministic outputs it is checked
// against.
//
//   core-baseline   fig5's pruned core network, baseline algorithm
//   core-diversity  same topology and limits, diversity algorithm and store
//   bgp-churn       BgpSim on the full hierarchy with session churn
//
// Every workload also has a toy size (a few ASes) for the self-test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "experiments/scale.hpp"
#include "topology/topology.hpp"

namespace perfbench {

namespace topo = scion::topo;

enum class Workload { kCoreBaseline, kCoreDiversity, kBgpChurn };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);
bool is_core(Workload w);

/// Generated inputs of one simulation: the topology the simulator runs on
/// and the monitor ASes whose per-AS outputs are checked.
struct Inputs {
  topo::Topology internet;
  /// Core workloads: the SCION view of the pruned core network.
  topo::Topology core;
  std::vector<topo::AsIndex> monitors;
};

class WorkloadSpec {
 public:
  WorkloadSpec(Workload w, bool toy);

  Workload workload() const { return w_; }

  /// Picks the generator seed for benchmark seed `seed`. Core workloads run
  /// at a fixed input size: candidates seed * 100000 + j, j = 0, 1, ..., are
  /// tried until the pruned core network has exactly the target numbers of
  /// links and of linked AS pairs. The generator alone varies both by about
  /// 11 %, and the work of a run follows them (the diversity algorithm
  /// works per neighbour AS). `candidates` receives the number tried.
  std::uint64_t input_seed(std::uint64_t seed, std::uint64_t& candidates) const;

  /// Topology generation from an input seed (the set-up work before the
  /// simulator is constructed).
  Inputs make_inputs(std::uint64_t input_seed) const;

  scion::ctrl::BeaconingSimConfig core_config(std::uint64_t seed) const;
  scion::bgp::BgpSimConfig bgp_config(std::uint64_t seed) const;

 private:
  Workload w_;
  scion::exp::Scale scale_;
  /// Core link and linked-AS-pair counts of an accepted input; 0 links
  /// accepts the first candidate.
  std::size_t core_links_{0};
  std::size_t core_pairs_{0};
};

/// Deterministic outputs of a core run, the part the output hash covers.
struct CoreOutputs {
  scion::ctrl::BeaconServerStats stats;
  std::vector<std::uint64_t> monitor_bytes;
  std::uint64_t total_bytes{0};
  std::uint64_t events{0};
  /// Sum of store_digest() over all servers: the paths each AS ends with.
  std::uint64_t stores{0};
};

/// Digest of a beacon store's contents that does not depend on iteration
/// order: a sum of one mixed value per stored PCB (origin, path key,
/// arrival time, staleness). The counters above miss, for example, a
/// refresh that was dropped: it leaves every count unchanged but keeps an
/// older instance stored.
std::uint64_t store_digest(const scion::ctrl::BeaconStore& store);

/// Every value of `out` in a fixed order: what the hash covers and what
/// the traced driver must reproduce exactly.
std::vector<std::uint64_t> output_fields(const CoreOutputs& out);

std::string hash_core(const CoreOutputs& out);

/// Reads the outputs of a finished BeaconingSim.
CoreOutputs core_outputs(const scion::ctrl::BeaconingSim& sim,
                         scion::sim::Simulator& simulator,
                         const Inputs& inputs);

/// Hash over the per-monitor update accounting, the updates received and
/// best-route changes summed over speakers, the update and suppression
/// totals and the event count of a finished BgpSim.
std::string hash_bgp(scion::bgp::BgpSim& sim, const Inputs& inputs);

/// The monitors of `inputs` as AS indices of the core topology (matched by
/// AS number; pruned-away monitors are skipped).
std::vector<topo::AsIndex> core_monitors(const Inputs& inputs);

}  // namespace perfbench
