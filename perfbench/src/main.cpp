/// \file main.cpp
/// perfbench driver: runs one workload against live `pipeopt serve` /
/// `pipeopt route --spawn` processes and prints every metric.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    --pipeopt PATH --work-dir DIR [--git-sha SHA]
///
/// --trace 0 measures the end-to-end metrics: set-up time (median of
/// several launches), then one timed window after a warm-up. --trace 1
/// measures the per-layer metrics: an untraced window (the tracing
/// overhead's base), a traced window with span logs and stats/metrics
/// snapshots at its edges, a router probe (fleet), and in-process timing
/// of each module's entry points. See perfbench/README.md.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet.hpp"
#include "io/json.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "stream.hpp"
#include "util/fdio.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace pipeopt;
using Clock = std::chrono::steady_clock;
using FieldMap = std::unordered_map<std::string, std::string>;

/// Launches per run behind `setup_s` (a median with ten launches beyond
/// it); the last one carries the load.
constexpr int kSetups = 21;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pipeopt;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--pipeopt") {
      args.pipeopt = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.pipeopt.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument("need --pipeopt and a positive --seconds");
  }
  return args;
}

FieldMap to_map(const std::string& line) {
  FieldMap map;
  for (auto& [key, value] : io::parse_flat_json(line)) map[key] = value;
  return map;
}

double number(const FieldMap& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0.0 : std::stod(it->second);
}

/// The q-quantile (µs) of histogram `name` over the samples recorded
/// between two `metrics` snapshots; `samples` gets their count.
double window_quantile(const FieldMap& begin, const FieldMap& end,
                       const std::string& name, double q,
                       std::size_t& samples) {
  obs::LatencyHistogram::Snapshot delta;
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    const std::string key = name + ".b" + std::to_string(i);
    delta.buckets[i] =
        static_cast<std::uint64_t>(number(end, key) - number(begin, key));
    delta.count += delta.buckets[i];
  }
  samples = delta.count;
  return delta.count == 0 ? 0.0 : delta.quantile_us(q);
}

/// One timed window over a live deployment.
struct Window {
  LoadResult load;
  std::vector<ProcSample> begin, end;  ///< per deployment pid
  double client_begin = 0.0, client_end = 0.0;
  Clock::time_point wall_begin, wall_end;
  FieldMap stats_begin, stats_end, metrics_begin, metrics_end;
  std::vector<double> procs_running;
  /// Server CPU seconds (all processes) at the window's start, after each
  /// whole second of it, and at its end.
  std::vector<double> cpu_marks;

  [[nodiscard]] double wall_s() const {
    return std::chrono::duration<double>(wall_end - wall_begin).count();
  }
  [[nodiscard]] double cpu_s(std::size_t i) const {
    return end[i].cpu_s - begin[i].cpu_s;
  }
  [[nodiscard]] double server_cpu_s() const {
    double total = 0.0;
    for (std::size_t i = 0; i < end.size(); ++i) total += cpu_s(i);
    return total;
  }
};

Window drive(const Deployment& deployment, const Stream& stream,
             const WorkloadSpec& spec, double seconds, bool traced) {
  Window window;
  const std::vector<pid_t> pids = deployment.pids();
  const auto snapshot = [&](std::vector<ProcSample>& procs, double& client,
                            FieldMap& stats, FieldMap& metrics,
                            Clock::time_point& wall) {
    wall = Clock::now();
    for (const pid_t pid : pids) procs.push_back(sample_process(pid));
    client = self_cpu_seconds();
    if (traced) {
      stats = to_map(query(deployment.port(), "{\"type\":\"stats\"}"));
      metrics = to_map(query(deployment.port(), "{\"type\":\"metrics\"}"));
    }
  };
  LoadOptions options;
  options.port = deployment.port();
  options.connections = spec.connections;
  options.warmup_s = spec.warmup_s;
  options.window_s = seconds;
  options.traced = traced;
  const auto server_cpu = [&] {
    double total = 0.0;
    for (const pid_t pid : pids) total += sample_process(pid).cpu_s;
    return total;
  };
  options.on_window_start = [&] {
    snapshot(window.begin, window.client_begin, window.stats_begin,
             window.metrics_begin, window.wall_begin);
    window.cpu_marks = {server_cpu()};
  };
  options.on_window_end = [&] {
    snapshot(window.end, window.client_end, window.stats_end,
             window.metrics_end, window.wall_end);
    window.cpu_marks.push_back(server_cpu());
  };
  options.on_tick = [&] {
    if (traced) window.procs_running.push_back(procs_running());
    const double since =
        std::chrono::duration<double>(Clock::now() - window.wall_begin).count();
    if (since >= static_cast<double>(window.cpu_marks.size())) {
      window.cpu_marks.push_back(server_cpu());
    }
  };
  window.load = run_load(stream, options);
  return window;
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// The one-second slice of the window a request was due in.
std::size_t slice_of(const Sample& sample, const WorkloadSpec& spec) {
  return static_cast<std::size_t>(std::max(0.0, sample.due - spec.warmup_s));
}

/// Which one-second slices of the window to measure: the steadier half.
/// Other tenants of a shared host take CPU for seconds at a time, and
/// requests queue meanwhile; ranking the slices by median latency (which
/// the odd expensive request does not move) and keeping the better half
/// keeps those seconds out of the figures. Failures are never dropped:
/// `ok_share` counts the whole window.
std::vector<bool> steady_slices(const LoadResult& load, const WorkloadSpec& spec,
                                double seconds) {
  const std::size_t n = static_cast<std::size_t>(std::max(1.0, std::floor(seconds)));
  std::vector<std::vector<double>> latency(n);
  for (const Sample& sample : load.samples) {
    const std::size_t k = slice_of(sample, spec);
    if (!sample.in_window || k >= n) continue;
    latency[k].push_back(sample.ok ? sample.done - sample.due : 1e300);
  }
  std::vector<double> badness(n);
  for (std::size_t k = 0; k < n; ++k) badness[k] = quantile(latency[k], 0.5).value;
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return badness[a] < badness[b]; });
  std::vector<bool> keep(n, false);
  for (std::size_t i = 0; i < (n + 1) / 2; ++i) keep[order[i]] = true;
  return keep;
}

/// Client-side counts over the requests due inside the kept slices of the
/// window.
struct Tally {
  std::size_t attempted = 0, ok = 0, slo_ok = 0;
  double seconds = 0.0;     ///< kept slices
  double server_cpu = 0.0;  ///< server CPU seconds inside them
  std::size_t solves = 0, optimal = 0;
  std::size_t tier[3] = {0, 0, 0};  ///< polynomial, exact, heuristic wins
  double nodes = 0.0, evals = 0.0, req_bytes = 0.0, resp_bytes = 0.0;
  std::vector<double> latency_ms, sweep_ms, rtt_us, send_lag_ms;
};

/// Counts over the slices `keep` marks (all of them: the whole window).
Tally tally(const Stream& stream, const Window& window, const WorkloadSpec& spec,
            const std::vector<bool>& keep) {
  Tally t;
  for (std::size_t k = 0; k < keep.size(); ++k) {
    if (!keep[k]) continue;
    t.seconds += 1.0;
    if (k + 1 < window.cpu_marks.size()) {
      t.server_cpu += window.cpu_marks[k + 1] - window.cpu_marks[k];
    }
  }
  for (const Sample& sample : window.load.samples) {
    const std::size_t k = std::min(slice_of(sample, spec), keep.size() - 1);
    if (!sample.in_window || !keep[k]) continue;
    const PoolEntry& entry = stream.pool[sample.pool_index];
    ++t.attempted;
    // A failed request misses every latency limit.
    const double latency_ms =
        sample.ok ? (sample.done - sample.due) * 1e3 : 1e300;
    t.latency_ms.push_back(latency_ms);
    t.send_lag_ms.push_back((sample.sent - sample.due) * 1e3);
    t.req_bytes += sample.req_bytes;
    t.resp_bytes += sample.resp_bytes;
    if (sample.ok) {
      ++t.ok;
      if (latency_ms <= spec.slo_ms) ++t.slo_ok;
      t.rtt_us.push_back((sample.done - sample.sent) * 1e6);
    }
    if (entry.kind == Kind::Pareto) {
      t.sweep_ms.push_back(latency_ms);
      continue;
    }
    ++t.solves;
    if (sample.ok && entry.optimal) ++t.optimal;
    if (entry.tier != Tier::None) ++t.tier[static_cast<int>(entry.tier)];
    t.nodes += entry.nodes;
    t.evals += entry.evals;
  }
  return t;
}


/// What tracing can slow down at a fixed arrival rate: requests served
/// per server CPU second.
double work_rate(const Tally& t) {
  return share(static_cast<double>(t.attempted), t.server_cpu);
}

/// `steady` counts the kept slices, `whole` the whole window.
void end_to_end(Report& report, const Tally& steady, const Tally& whole,
                const Window& window, const std::vector<double>& setups) {
  const Tally& t = steady;
  const double attempted = static_cast<double>(t.attempted);
  report.set("setup_s", quantile(setups, 0.5));
  report.set("throughput_rps", share(static_cast<double>(t.ok), t.seconds), t.ok);
  report.set("latency_p50_ms", quantile(t.latency_ms, 0.5));
  report.set("latency_p99_ms", quantile(t.latency_ms, 0.99));
  report.set("slo_share", share(static_cast<double>(t.slo_ok), attempted), t.attempted);
  report.set("ok_share",
             share(static_cast<double>(whole.ok), static_cast<double>(whole.attempted)),
             whole.attempted);
  report.set("optimal_share",
             share(static_cast<double>(t.optimal), static_cast<double>(t.solves)),
             t.solves);
  report.set("sweep_latency_p50_ms", quantile(t.sweep_ms, 0.5));
  report.set("cpu_ms_per_req", share(t.server_cpu * 1e3, attempted), t.attempted);
  double rss = 0.0;
  for (const ProcSample& proc : window.end) rss += proc.hwm_mb;
  report.set("peak_rss_mb", rss, window.end.size());
}

/// Span-log lines by trace id.
std::unordered_map<std::string, FieldMap> read_spans(const std::string& path) {
  std::unordered_map<std::string, FieldMap> spans;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    FieldMap fields = to_map(line);
    const std::string trace = fields["trace"];
    spans.emplace(trace, std::move(fields));
  }
  return spans;
}

/// Sequential round trips of `entries` on one connection, `passes` times;
/// mismatching answers are counted.
std::vector<double> probe(std::uint16_t port,
                          const std::vector<const PoolEntry*>& entries,
                          int passes, std::size_t& mismatches) {
  const int fd = connect_local(port);
  if (fd < 0) throw std::runtime_error("probe cannot connect");
  util::FdLineReader reader(fd);
  std::vector<double> rtts;
  std::string response;
  for (int pass = 0; pass < passes; ++pass) {
    for (const PoolEntry* entry : entries) {
      const Clock::time_point t0 = Clock::now();
      if (!util::write_line(fd, entry->line) || !reader.next_line(response)) {
        ::close(fd);
        throw std::runtime_error("probe connection lost");
      }
      rtts.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      if (strip_wall(response) != entry->expected.front()) ++mismatches;
    }
  }
  ::close(fd);
  return rtts;
}

constexpr const char* kPhases[] = {"parse", "cache_lookup", "queue_wait",
                                   "bind",  "solve",        "format"};

/// Span logs joined to the client's samples: each layer's mean self time
/// along the blocking path of the window's answered solves.
void blocking_path(Report& report, const Stream& stream, const Window& window,
                   const std::string& prefix, std::size_t shards) {
  const auto top = read_spans(prefix + ".top.jsonl");
  std::vector<std::unordered_map<std::string, FieldMap>> shard_spans;
  for (std::size_t i = 0; i < shards; ++i) {
    shard_spans.push_back(read_spans(prefix + ".shard." + std::to_string(i) + ".jsonl"));
  }
  double client = 0.0, router = 0.0, other = 0.0, joined = 0.0;
  double phase[std::size(kPhases)] = {};
  std::vector<double> per_shard(shards, 0.0);
  for (const Sample& sample : window.load.samples) {
    if (!sample.in_window) continue;
    const std::string id = trace_id(sample.seq);
    for (std::size_t i = 0; i < shards; ++i) {
      if (shard_spans[i].contains(id)) per_shard[i] += 1.0;
    }
    if (!sample.ok || stream.pool[sample.pool_index].kind != Kind::Solve) continue;
    const auto top_it = top.find(id);
    if (top_it == top.end()) continue;
    const FieldMap* server = &top_it->second;
    double router_us = 0.0;
    if (shards > 0) {
      const FieldMap* found = nullptr;
      for (const auto& spans : shard_spans) {
        if (const auto it = spans.find(id); it != spans.end()) found = &it->second;
      }
      if (found == nullptr) continue;
      router_us = number(top_it->second, "total_us") - number(*found, "total_us");
      server = found;
    }
    joined += 1.0;
    client += (sample.done - sample.sent) * 1e6 - number(top_it->second, "total_us");
    router += router_us;
    double phases = 0.0;
    for (std::size_t p = 0; p < std::size(kPhases); ++p) {
      const double us = number(*server, std::string("span.") + kPhases[p] + "_us");
      phase[p] += us;
      phases += us;
    }
    other += number(*server, "total_us") - phases;
  }
  const auto n = static_cast<std::size_t>(joined);
  report.set("path.client_us", share(client, joined), n);
  report.set("path.router_us", share(router, joined), n);
  report.set("path.server_other_us", share(other, joined), n);
  for (std::size_t p = 0; p < std::size(kPhases); ++p) {
    report.set(std::string("path.") + kPhases[p] + "_us", share(phase[p], joined), n);
  }
  double routed = 0.0, busiest = 0.0;
  for (const double count : per_shard) {
    routed += count;
    busiest = std::max(busiest, count);
  }
  report.set("router.shard_share_max", share(busiest, routed),
             static_cast<std::size_t>(routed));
}

/// The traced run's per-layer metrics.
void per_layer(Report& report, const Stream& stream, const WorkloadSpec& spec,
               const Deployment& deployment, const Window& window,
               const Tally& t, const Tally& steady, double untraced_rate,
               std::size_t& probe_mismatches) {
  const double solves = static_cast<double>(t.solves);
  const double attempted = static_cast<double>(t.attempted);
  const bool fleet = spec.topology == Topology::Fleet;
  report.set("client.send_lag_p99_ms", quantile(t.send_lag_ms, 0.99));
  report.set("client.req_bytes_mean", share(t.req_bytes, attempted), t.attempted);
  report.set("client.resp_bytes_mean", share(t.resp_bytes, attempted), t.attempted);

  std::size_t n = 0;
  const double request_p50 = window_quantile(window.metrics_begin, window.metrics_end,
                                             "request", 0.5, n);
  report.set("server.request_us_p50", request_p50, n);
  report.set("server.request_us_p99",
             window_quantile(window.metrics_begin, window.metrics_end, "request", 0.99, n),
             n);
  const Quantile rtt = quantile(t.rtt_us, 0.5);
  report.set("server.wire_us_p50", rtt.value - request_p50, rtt.samples);
  for (const char* phase : kPhases) {
    const double p50 = window_quantile(window.metrics_begin, window.metrics_end,
                                       std::string("phase.") + phase, 0.5, n);
    report.set(std::string("server.phase.") + phase + "_us_p50", p50, n);
  }
  report.set("router.relay_us_p50",
             window_quantile(window.metrics_begin, window.metrics_end, "phase.relay",
                             0.5, n),
             n);

  const auto delta = [&](const char* key) {
    return number(window.stats_end, key) - number(window.stats_begin, key);
  };
  const double hits = delta("cache_hits");
  const double lookups = hits + delta("cache_misses");
  report.set("api.cache_hit_share", share(hits, lookups), static_cast<std::size_t>(lookups));
  report.set("api.cache_evictions_per_kreq", share(delta("cache_evictions") * 1e3, attempted),
             t.attempted);
  report.set("router.shed", delta("shed"), t.attempted);
  report.set("router.retries", delta("retries"), t.attempted);

  report.set("solvers.polynomial_share", share(static_cast<double>(t.tier[0]), solves), t.solves);
  report.set("solvers.exact_share", share(static_cast<double>(t.tier[1]), solves), t.solves);
  report.set("solvers.heuristic_share", share(static_cast<double>(t.tier[2]), solves), t.solves);
  report.set("exact.nodes_per_req", share(t.nodes, solves), t.solves);
  report.set("heuristics.evals_per_req", share(t.evals, solves), t.solves);

  // Where the CPU went: per process, the client, and the host's run queue.
  const double wall = window.wall_s();
  const double client_cpu = window.client_end - window.client_begin;
  report.set("proc.client_cores", client_cpu / wall, 1);
  report.set("proc.router_cores", fleet ? window.cpu_s(0) / wall : 0.0, fleet ? 1 : 0);
  const std::size_t first_shard = fleet ? 1 : 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t i = first_shard + s;
    const bool present = i < window.end.size();
    report.set("proc.shard" + std::to_string(s) + "_cores",
               present ? window.cpu_s(i) / wall : 0.0, present ? 1 : 0);
  }
  report.set("router.cpu_share",
             fleet ? share(window.cpu_s(0), window.server_cpu_s()) : 0.0, fleet ? 1 : 0);
  report.set("host.cores_busy", (window.server_cpu_s() + client_cpu) / wall, 1);
  double running = 0.0;
  for (const double r : window.procs_running) running += r;
  report.set("host.procs_running_mean",
             share(running, static_cast<double>(window.procs_running.size())),
             window.procs_running.size());

  report.set("obs.trace_overhead_share",
             1.0 - share(work_rate(steady), untraced_rate), steady.attempted);

  if (!fleet) {
    report.set("router.hop_us_p50", 0.0, 0);
    return;
  }
  // The same light probe stream routed and direct to a shard, all cache
  // hits after one warming pass through every endpoint.
  std::vector<const PoolEntry*> light;
  for (const PoolEntry& entry : stream.pool) {
    if (entry.kind == Kind::Solve && !entry.heavy && light.size() < 96) {
      light.push_back(&entry);
    }
  }
  std::vector<std::uint16_t> ports{deployment.port()};
  ports.insert(ports.end(), deployment.shard_ports().begin(),
               deployment.shard_ports().end());
  for (const std::uint16_t port : ports) (void)probe(port, light, 1, probe_mismatches);
  const std::vector<double> routed = probe(deployment.port(), light, 3, probe_mismatches);
  std::vector<double> direct;
  for (const std::uint16_t port : deployment.shard_ports()) {
    const std::vector<double> rtts = probe(port, light, 3, probe_mismatches);
    direct.insert(direct.end(), rtts.begin(), rtts.end());
  }
  report.set("router.hop_us_p50",
             quantile(routed, 0.5).value - quantile(direct, 0.5).value, routed.size());
}

void layer_times(Report& report, const Stream& stream) {
  const LayerTimes times = time_layers(stream, 200, 8);
  report.set("io.parse_us", times.parse_us, times.solves);
  report.set("io.key_us", times.key_us, times.solves);
  report.set("io.format_us", times.format_us, times.solves);
  report.set("api.plan_us", times.plan_us, times.solves);
  report.set("api.execute_us", times.execute_us, times.solves);
  report.set("api.queue_hop_us", times.queue_hop_us, times.solves);
  report.set("api.sweep_points_per_sweep", times.sweep_points_per_sweep, times.sweeps);
  report.set("api.sweep_us_per_point", times.sweep_us_per_point, times.sweeps);
  report.set("exact.nodes_per_s", times.exact_nodes_per_s, times.solves);
  report.set("core.evals_per_s", times.evals_per_s, times.solves);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const unsigned nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));

  const Clock::time_point start = Clock::now();
  Stream stream = make_stream(*spec, args.seed, spec->warmup_s + args.seconds);
  compute_references(stream, nproc);
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu distinct requests, references in %.2f s\n",
               spec->name, static_cast<unsigned long long>(args.seed), stream.pool.size(),
               seconds_since(start));

  const std::vector<bool> all_slices(
      static_cast<std::size_t>(std::max(1.0, std::floor(args.seconds))), true);
  Report report;
  std::size_t mismatches = 0;
  std::size_t errors = 0;
  Tally measured;
  if (!args.trace) {
    std::vector<double> setups;
    for (int i = 1; i < kSetups; ++i) {
      Deployment deployment(args.pipeopt, *spec, "");
      setups.push_back(deployment.setup_seconds());
    }
    Deployment deployment(args.pipeopt, *spec, "");
    setups.push_back(deployment.setup_seconds());
    const Window window = drive(deployment, stream, *spec, args.seconds, false);
    deployment.stop();
    measured = tally(stream, window, *spec, all_slices);
    mismatches += window.load.mismatches;
    errors += window.load.errors;
    end_to_end(report, tally(stream, window, *spec, steady_slices(window.load, *spec, args.seconds)),
               measured, window, setups);
  } else {
    // The tracing overhead's base: the same load untraced, for half as long.
    double untraced_rate = 0.0;
    {
      Deployment deployment(args.pipeopt, *spec, "");
      const double half = args.seconds / 2.0;
      const Window window = drive(deployment, stream, *spec, half, false);
      untraced_rate =
          work_rate(tally(stream, window, *spec, steady_slices(window.load, *spec, half)));
      mismatches += window.load.mismatches;
      errors += window.load.errors;
    }
    const std::string prefix = args.work_dir + "/" + spec->name + ".spans";
    for (const char* suffix : {".top.jsonl", ".shard.0.jsonl", ".shard.1.jsonl"}) {
      std::remove((prefix + suffix).c_str());
    }
    Deployment deployment(args.pipeopt, *spec, prefix);
    const Window window = drive(deployment, stream, *spec, args.seconds, true);
    measured = tally(stream, window, *spec, all_slices);
    mismatches += window.load.mismatches;
    errors += window.load.errors;
    per_layer(report, stream, *spec, deployment, window, measured,
              tally(stream, window, *spec, steady_slices(window.load, *spec, args.seconds)),
              untraced_rate, mismatches);
    deployment.stop();  // flushes the span logs
    blocking_path(report, stream, window, prefix,
                  spec->topology == Topology::Fleet ? spec->shards : 0);
    layer_times(report, stream);
  }

  const std::vector<std::string> missing = report.missing(args.trace);
  if (!missing.empty()) throw std::logic_error("metric never measured: " + missing.front());

  const RunInfo info{spec->name, args.seed,           args.trace,
                     args.git_sha, PERFBENCH_BUILD_TYPE, nproc};
  for (const auto& [name, value] : report.values()) {
    std::printf("%s\n", record_line(info, name, value).c_str());
    std::fprintf(stderr, "  %-34s %14.6g %-7s n=%zu%s\n", name.c_str(), value.value,
                 unit_of(name).c_str(), value.samples,
                 value.supported ? "" : "  (tail too thin)");
  }
  const std::size_t failed = measured.attempted - measured.ok;
  const bool correct = mismatches == 0 && errors == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: FAILED: %zu mismatching and %zu error answers\n",
                 mismatches, errors);
  }
  std::printf("%s\n", summary_line(correct, measured.attempted, failed, report).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A program that dies mid-run must surface as a failed write, not kill
  // the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
