// perfbench_driver: runs one benchmark workload in this process and prints
// one JSON object per line on stdout.
//
// In measure and trace mode, the first line, {"kind":"inputs",...}, names
// the generator seed chosen for the benchmark seed
// (WorkloadSpec::input_seed).
//
//   perfbench_driver measure --workload W --seed N
//       One end-to-end repetition with event profiling off: set-up
//       (topology generation plus simulator construction), run() and the
//       output hash, then a few set-up-only repetitions. Lines:
//       {"kind":"run",...} with the process's peak RSS before and after
//       run(), then {"kind":"setup",...}. run.py starts one such process per
//       repetition.
//   perfbench_driver trace --workload W --seed N [--spans-out FILE]
//       One untraced and one traced run of the same inputs; prints the
//       per-layer metrics ({"kind":"trace",...}) and writes the spans.
//   perfbench_driver selftest
//       Every workload at toy size: repeated runs agree, the traced driver
//       matches BeaconingSim, spans nest, and the top-percentile rule holds.
//       Prints one {"kind":"toy",...} line per workload and seed.
//   perfbench_driver percentile
//       Reads integer samples from stdin and prints their count and top
//       percentile ({"kind":"percentile",...}).
//
// Exit code 0 on success, 1 on a failed check, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/alloc_track.hpp"
#include "obs/event_profile.hpp"
#include "obs/json.hpp"
#include "output_hash.hpp"
#include "spans.hpp"
#include "traced_core.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace ctrl = scion::ctrl;
namespace bgp = scion::bgp;
namespace obs = scion::obs;

/// Set-up-only repetitions after the full one. Set-up takes a fraction of
/// a millisecond to a few milliseconds at the benchmark sizes, so it is
/// sampled more often than run(). They follow run() so that each finds the
/// heap in the same state: in a fresh process, the kernel's first-touch
/// page faults made one 800-AS set-up take anywhere from 1.7 to 9 ms.
constexpr int kSetupReps = 10;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed{1};
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--spans-out") a.spans_out = value;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return a;
}

/// Starts one output line: a JSON object whose first key is "kind".
obs::JsonWriter line(const char* kind) {
  obs::JsonWriter w;
  w.begin_object().kv("kind", kind);
  return w;
}

void print(obs::JsonWriter& w) { std::cout << w.end_object().str() << std::endl; }

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The process's peak resident set (VmHWM), in units of 10^6 bytes.
/// getrusage's ru_maxrss is not used: across exec it keeps the peak of the
/// process image that started the driver (about 16 MB for the Python
/// interpreter of run.py), which hides the peak of a small workload.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 * 1e-6;  // the line is in kB
    }
  }
  return 0.0;
}

/// The highest percentile of `sorted` (ascending) with at least ten samples
/// beyond it: the sample with exactly ten larger positions above it.
/// Returns false when there are fewer than eleven samples.
bool top_percentile(const std::vector<std::int64_t>& sorted, double& pct,
                    std::int64_t& value) {
  const std::size_t n = sorted.size();
  if (n < 11) return false;
  value = sorted[n - 11];
  pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return true;
}

std::int64_t median_of(const std::vector<std::int64_t>& sorted) {
  return sorted.empty() ? 0 : sorted[(sorted.size() - 1) / 2];
}

// --- one untraced repetition -------------------------------------------

struct RepResult {
  double topology_s{0};
  double construct_s{0};
  double run_s{0};
  std::uint64_t events{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};
  /// The process's peak RSS just before run() began and just after it
  /// ended.
  double pre_run_peak_rss_mb{0};
  double peak_rss_mb{0};
  std::string hash;
};

/// Set-up, and unless `setup_only`, run() and the output hash.
RepResult run_once(const WorkloadSpec& spec, std::uint64_t seed,
                   bool setup_only) {
  RepResult r;
  const std::int64_t t0 = now_ns();
  const Inputs inputs = spec.make_inputs(seed);
  const std::int64_t t1 = now_ns();
  auto timed_run = [&](auto& sim, scion::sim::Simulator& simulator) {
    const std::int64_t t2 = now_ns();
    r.topology_s = seconds_between(t0, t1);
    r.construct_s = seconds_between(t1, t2);
    if (setup_only) return;
    r.pre_run_peak_rss_mb = peak_rss_mb();
    const std::uint64_t a0 = obs::thread_allocs();
    const std::uint64_t b0 = obs::thread_alloc_bytes();
    const std::int64_t t3 = now_ns();
    sim.run();
    const std::int64_t t4 = now_ns();
    r.peak_rss_mb = peak_rss_mb();
    r.allocs = obs::thread_allocs() - a0;
    r.alloc_bytes = obs::thread_alloc_bytes() - b0;
    r.run_s = seconds_between(t3, t4);
    r.events = simulator.events_processed();
  };
  if (is_core(spec.workload())) {
    ctrl::BeaconingSim sim{inputs.core, spec.core_config(seed)};
    timed_run(sim, sim.simulator());
    if (!setup_only) r.hash = hash_core(core_outputs(sim, sim.simulator(), inputs));
  } else {
    bgp::BgpSim sim{inputs.internet, spec.bgp_config(seed)};
    for (const topo::AsIndex m : inputs.monitors) sim.add_monitor(m);
    timed_run(sim, sim.simulator());
    if (!setup_only) r.hash = hash_bgp(sim, inputs);
  }
  return r;
}

/// Maps the benchmark seed to the input seed and reports the search.
std::uint64_t pick_input(const WorkloadSpec& spec, std::uint64_t seed) {
  std::uint64_t candidates = 0;
  const std::uint64_t input_seed = spec.input_seed(seed, candidates);
  obs::JsonWriter w = line("inputs");
  w.kv("seed", seed).kv("input_seed", input_seed).kv("candidates", candidates);
  print(w);
  return input_seed;
}

int measure(const WorkloadSpec& spec, std::uint64_t seed) {
  obs::EventProfiler::global().set_enabled(false);
  const RepResult r = run_once(spec, seed, /*setup_only=*/false);
  obs::JsonWriter w = line("run");
  w.kv("topology_s", r.topology_s)
      .kv("construct_s", r.construct_s)
      .kv("run_s", r.run_s)
      .kv("events", r.events)
      .kv("allocs", r.allocs)
      .kv("alloc_bytes", r.alloc_bytes)
      .kv("pre_run_peak_rss_mb", r.pre_run_peak_rss_mb)
      .kv("peak_rss_mb", r.peak_rss_mb)
      .kv("hash", r.hash);
  print(w);
  for (int i = 0; i < kSetupReps; ++i) {
    const RepResult s = run_once(spec, seed, /*setup_only=*/true);
    obs::JsonWriter sw = line("setup");
    sw.kv("topology_s", s.topology_s).kv("construct_s", s.construct_s);
    print(sw);
  }
  return 0;
}

/// Reads integer samples from stdin and prints their count and, with at
/// least eleven samples, their top percentile.
int percentile() {
  std::vector<std::int64_t> v;
  for (std::int64_t x = 0; std::cin >> x;) v.push_back(x);
  std::sort(v.begin(), v.end());
  obs::JsonWriter w = line("percentile");
  w.kv("n", v.size());
  double pct = 0;
  std::int64_t top = 0;
  if (top_percentile(v, pct, top)) w.kv("ptop_pct", pct).kv("ptop", top);
  print(w);
  return 0;
}

// --- traced run ----------------------------------------------------------

/// Every per-layer metric, zero where the workload bypasses the layer.
using LayerMetrics = std::map<std::string, double>;

LayerMetrics empty_layer_metrics() {
  LayerMetrics m;
  for (const char* name :
       {"topology.build_s", "simnet.events", "simnet.queue_high_water",
        "simnet.self_s", "simnet.send.calls", "simnet.send.self_s",
        "simnet.bytes", "core.handle_pcb.calls", "core.handle_pcb.self_s",
        "core.handle_pcb.p50_ns", "core.handle_pcb.ptop_ns",
        "core.handle_pcb.allocs", "core.admit_ratio", "core.store.rejected",
        "core.store.stored", "core.on_interval.calls",
        "core.on_interval.self_s", "core.on_interval.p50_us",
        "core.on_interval.ptop_us", "core.on_interval.allocs",
        "core.on_interval.alloc_mb", "core.diversity.evaluations",
        "core.diversity.suppressed", "bgp.run_s", "bgp.update_process_s",
        "bgp.mrai_timer_s", "bgp.update_deliver_s", "bgp.updates_sent",
        "bgp.routes_suppressed", "bgp.allocs", "trace.overhead_s"}) {
    m[name] = 0.0;
  }
  return m;
}

struct TraceResult {
  LayerMetrics metrics = empty_layer_metrics();
  double untraced_run_s{0};
  double traced_run_s{0};
  /// Output hashes of the untraced and of the traced run.
  std::string hash;
  std::string traced_hash;
  bool equivalent{false};
  std::string nesting_error;
  double handle_pcb_ptop_pct{0};
  double on_interval_ptop_pct{0};
};

TraceResult trace_core(const WorkloadSpec& spec, std::uint64_t seed,
                       SpanRecorder& spans) {
  TraceResult t;
  LayerMetrics& m = t.metrics;
  const std::int64_t t0 = now_ns();
  const Inputs inputs = spec.make_inputs(seed);
  m["topology.build_s"] = seconds_between(t0, now_ns());
  const ctrl::BeaconingSimConfig config = spec.core_config(seed);

  // The untraced reference: BeaconingSim itself, profiling off.
  obs::EventProfiler::global().set_enabled(false);
  CoreOutputs ref;
  std::size_t pending = 0;
  {
    ctrl::BeaconingSim sim{inputs.core, config};
    const std::int64_t a = now_ns();
    sim.run();
    t.untraced_run_s = seconds_between(a, now_ns());
    ref = core_outputs(sim, sim.simulator(), inputs);
    pending = sim.simulator().pending();
  }
  t.hash = hash_core(ref);

  // The traced driver, profiling on. Each event opens at most one handler
  // span and each send (which schedules one event) one send span, so this
  // bound keeps the recorder from allocating while spans are open.
  obs::EventProfiler::global().set_enabled(true);
  spans.reserve(2 * (ref.events + pending) + 16);
  TracedCoreSim sim{inputs.core, config, spans};
  const std::int64_t a = now_ns();
  sim.run();
  t.traced_run_s = seconds_between(a, now_ns());
  const CoreOutputs out = sim.outputs(inputs);
  t.traced_hash = hash_core(out);
  t.equivalent = output_fields(out) == output_fields(ref);
  t.nesting_error = check_nesting(spans);
  if (t.nesting_error.empty() && spans.grew()) {
    t.nesting_error = "span store outgrew its reservation";
  }

  const std::vector<std::int64_t> self = spans.self_ns();
  const SpanSummary run_until = summarize(spans, spans.name_id("simnet.run_until"), self);
  const SpanSummary handle = summarize(spans, spans.name_id("core.handle_pcb"), self);
  const SpanSummary interval = summarize(spans, spans.name_id("core.on_interval"), self);
  const SpanSummary send = summarize(spans, spans.name_id("simnet.send"), self);

  m["simnet.events"] = static_cast<double>(out.events);
  m["simnet.queue_high_water"] =
      static_cast<double>(sim.simulator().queue_high_water());
  m["simnet.self_s"] = ns_to_s(run_until.self_ns);
  m["simnet.send.calls"] = static_cast<double>(send.calls);
  m["simnet.send.self_s"] = ns_to_s(send.self_ns);
  m["simnet.bytes"] = static_cast<double>(out.total_bytes);

  std::int64_t top = 0;
  m["core.handle_pcb.calls"] = static_cast<double>(handle.calls);
  m["core.handle_pcb.self_s"] = ns_to_s(handle.self_ns);
  m["core.handle_pcb.p50_ns"] = static_cast<double>(median_of(handle.durations));
  if (top_percentile(handle.durations, t.handle_pcb_ptop_pct, top)) {
    m["core.handle_pcb.ptop_ns"] = static_cast<double>(top);
  }
  m["core.handle_pcb.allocs"] = static_cast<double>(handle.allocs);
  // Receive counters over the whole run, like the handle_pcb spans.
  const ctrl::BeaconServerStats all = sim.whole_run_stats();
  const std::uint64_t admitted = all.pcbs_received - all.loops_dropped -
                                 all.verify_failures - all.resolve_failures -
                                 all.store_rejected;
  m["core.admit_ratio"] = all.pcbs_received ? static_cast<double>(admitted) /
                                                  static_cast<double>(all.pcbs_received)
                                            : 0.0;
  m["core.store.rejected"] = static_cast<double>(all.store_rejected);
  std::uint64_t stored = 0, evaluations = 0, suppressed = 0;
  for (topo::AsIndex as = 0; as < sim.server_count(); ++as) {
    stored += sim.server(as).store().total_stored();
    if (const ctrl::DiversityState* d = sim.server(as).diversity_state()) {
      evaluations += d->evaluations();
      suppressed += d->suppressed();
    }
  }
  m["core.store.stored"] = static_cast<double>(stored);
  m["core.diversity.evaluations"] = static_cast<double>(evaluations);
  m["core.diversity.suppressed"] = static_cast<double>(suppressed);

  m["core.on_interval.calls"] = static_cast<double>(interval.calls);
  m["core.on_interval.self_s"] = ns_to_s(interval.self_ns);
  m["core.on_interval.p50_us"] =
      static_cast<double>(median_of(interval.durations)) * 1e-3;
  if (top_percentile(interval.durations, t.on_interval_ptop_pct, top)) {
    m["core.on_interval.ptop_us"] = static_cast<double>(top) * 1e-3;
  }
  m["core.on_interval.allocs"] = static_cast<double>(interval.allocs);
  m["core.on_interval.alloc_mb"] = static_cast<double>(interval.alloc_bytes) * 1e-6;
  m["trace.overhead_s"] = t.traced_run_s - t.untraced_run_s;
  return t;
}

TraceResult trace_bgp(const WorkloadSpec& spec, std::uint64_t seed,
                      SpanRecorder& spans) {
  TraceResult t;
  LayerMetrics& m = t.metrics;
  const std::int64_t t0 = now_ns();
  const Inputs inputs = spec.make_inputs(seed);
  m["topology.build_s"] = seconds_between(t0, now_ns());
  const bgp::BgpSimConfig config = spec.bgp_config(seed);

  obs::EventProfiler& profiler = obs::EventProfiler::global();
  profiler.set_enabled(false);
  {
    bgp::BgpSim sim{inputs.internet, config};
    for (const topo::AsIndex mon : inputs.monitors) sim.add_monitor(mon);
    const std::int64_t a = now_ns();
    sim.run();
    t.untraced_run_s = seconds_between(a, now_ns());
    t.hash = hash_bgp(sim, inputs);
  }

  // Spans around construction and run(); the handler split comes from the
  // event profiler, whose shards flush into the global profiler at the end
  // of every run_until segment.
  profiler.set_enabled(true);
  profiler.reset_counters();
  spans.reserve(2);
  spans.begin(spans.name_id("bgp.construct"));
  bgp::BgpSim sim{inputs.internet, config};
  for (const topo::AsIndex mon : inputs.monitors) sim.add_monitor(mon);
  spans.end();
  spans.begin(spans.name_id("bgp.run"));
  sim.run();
  spans.end();
  const Span& run = spans.spans().back();
  t.traced_run_s = ns_to_s(run.duration_ns());
  t.traced_hash = hash_bgp(sim, inputs);
  t.equivalent = t.traced_hash == t.hash;
  t.nesting_error = check_nesting(spans);

  std::int64_t handler_ns = 0;
  for (const auto& [label, stats] : profiler.label_snapshot()) {
    handler_ns += stats.wall_ns;
    if (label == "bgp.update.process") m["bgp.update_process_s"] = ns_to_s(stats.wall_ns);
    if (label == "bgp.timer.mrai") m["bgp.mrai_timer_s"] = ns_to_s(stats.wall_ns);
    if (label == "bgp.update.deliver") m["bgp.update_deliver_s"] = ns_to_s(stats.wall_ns);
  }
  profiler.reset_counters();

  m["simnet.events"] = static_cast<double>(sim.simulator().events_processed());
  m["simnet.queue_high_water"] =
      static_cast<double>(sim.simulator().queue_high_water());
  m["simnet.self_s"] = ns_to_s(run.duration_ns() - handler_ns);
  // Every UPDATE a speaker sends is one Network::send call.
  m["simnet.send.calls"] = static_cast<double>(sim.total_updates_sent());
  m["simnet.bytes"] = static_cast<double>(sim.network().total_bytes_all().value());
  m["bgp.run_s"] = t.traced_run_s;
  m["bgp.updates_sent"] = static_cast<double>(sim.total_updates_sent());
  m["bgp.routes_suppressed"] = static_cast<double>(sim.total_routes_suppressed());
  m["bgp.allocs"] = static_cast<double>(run.allocs);
  m["trace.overhead_s"] = t.traced_run_s - t.untraced_run_s;
  return t;
}

TraceResult trace_workload(const WorkloadSpec& spec, std::uint64_t seed,
                           SpanRecorder& spans) {
  return is_core(spec.workload()) ? trace_core(spec, seed, spans)
                                  : trace_bgp(spec, seed, spans);
}

int trace(const WorkloadSpec& spec, std::uint64_t seed,
          const std::string& spans_out) {
  SpanRecorder spans;
  const TraceResult t = trace_workload(spec, seed, spans);
  obs::JsonWriter w = line("trace");
  w.kv("hash", t.hash)
      .kv("traced_hash", t.traced_hash)
      .kv("equivalent", t.equivalent)
      .kv("nesting_error", t.nesting_error)
      .kv("untraced_run_s", t.untraced_run_s)
      .kv("traced_run_s", t.traced_run_s)
      .kv("handle_pcb_ptop_pct", t.handle_pcb_ptop_pct)
      .kv("on_interval_ptop_pct", t.on_interval_ptop_pct)
      .kv("spans", spans.spans().size());
  for (const auto& [name, value] : t.metrics) w.kv(name, value);
  print(w);
  if (!spans_out.empty() && !spans.write(spans_out)) {
    std::cerr << "perfbench_driver: cannot write " << spans_out << "\n";
    return 1;
  }
  return t.equivalent && t.nesting_error.empty() ? 0 : 1;
}

// --- self-test -------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };

  // Top-percentile rule: ten samples beyond the reported one, none below 11.
  std::vector<std::int64_t> v;
  double pct = 0;
  std::int64_t top = 0;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  expect(!top_percentile(v, pct, top), "ten samples have no top percentile");
  v.push_back(11);
  expect(top_percentile(v, pct, top) && top == 1, "eleven samples: the minimum");
  v.clear();
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(top_percentile(v, pct, top) && top == 90 && pct == 90.0,
         "100 samples: p90 with ten beyond");
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(top_percentile(v, pct, top) && top == 990 && pct == 99.0,
         "1000 samples: p99 with ten beyond");

  for (const Workload w :
       {Workload::kCoreBaseline, Workload::kCoreDiversity, Workload::kBgpChurn}) {
    const WorkloadSpec spec{w, /*toy=*/true};
    for (const std::uint64_t seed : {1, 2}) {
      const std::string tag = std::string{to_string(w)} + " seed " + std::to_string(seed);
      obs::EventProfiler::global().set_enabled(false);
      const RepResult a = run_once(spec, seed, false);
      const RepResult b = run_once(spec, seed, false);
      expect(a.hash == b.hash, tag + ": repeated runs agree");
      expect(a.events > 0, tag + ": events were processed");

      SpanRecorder spans;
      const TraceResult t = trace_workload(spec, seed, spans);
      expect(t.equivalent, tag + ": traced driver matches the untraced run");
      expect(t.hash == a.hash, tag + ": trace reference matches measure run");
      expect(t.nesting_error.empty(), tag + ": spans nest (" + t.nesting_error + ")");
      // Self time plus the children's time is each span's duration.
      const std::vector<Span>& sp = spans.spans();
      std::vector<std::int64_t> child(sp.size(), 0);
      for (const Span& s : sp) {
        if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.duration_ns();
      }
      const std::vector<std::int64_t> self = spans.self_ns();
      bool sums = !sp.empty();
      for (std::size_t i = 0; i < sp.size(); ++i) {
        sums = sums && self[i] >= 0 && self[i] + child[i] == sp[i].duration_ns();
      }
      expect(sums, tag + ": self + child time equals every span");
      if (is_core(w)) {
        expect(t.metrics.at("core.handle_pcb.calls") > 0, tag + ": handle_pcb spans");
        expect(t.metrics.at("core.on_interval.calls") > 0, tag + ": on_interval spans");
        expect(t.metrics.at("simnet.send.calls") > 0, tag + ": send spans");
        bool parented = true;
        const std::uint32_t run_until = spans.name_id("simnet.run_until");
        const std::uint32_t interval = spans.name_id("core.on_interval");
        const std::uint32_t send = spans.name_id("simnet.send");
        for (const Span& s : sp) {
          const std::uint32_t parent =
              s.parent < 0 ? ~0u : sp[static_cast<std::size_t>(s.parent)].name;
          if (s.name == run_until) parented = parented && s.parent < 0;
          else if (s.name == send) parented = parented && parent == interval;
          else parented = parented && parent == run_until;
        }
        expect(parented, tag + ": sends nest in on_interval, handlers in run_until");
      } else {
        expect(t.metrics.at("bgp.update_process_s") > 0, tag + ": update process time");
      }
      obs::JsonWriter out = line("toy");
      out.kv("workload", to_string(w)).kv("seed", seed).kv("hash", a.hash);
      print(out);
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench_driver measure|trace|selftest|percentile "
                 "[--workload W] [--seed N] "
                 "[--spans-out FILE]\n";
    return 2;
  }
  if (args->mode == "selftest") return selftest();
  if (args->mode == "percentile") return percentile();
  const std::optional<Workload> w = parse_workload(args->workload);
  if (!w) {
    std::cerr << "perfbench_driver: unknown workload '" << args->workload << "'\n";
    return 2;
  }
  const WorkloadSpec spec{*w, /*toy=*/false};
  if (args->mode != "measure" && args->mode != "trace") {
    std::cerr << "perfbench_driver: unknown mode '" << args->mode << "'\n";
    return 2;
  }
  const std::uint64_t seed = pick_input(spec, args->seed);
  if (args->mode == "measure") return measure(spec, seed);
  return trace(spec, seed, args->spans_out);
}
