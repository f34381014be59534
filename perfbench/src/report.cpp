#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "io/json.hpp"
#include "util/stats.hpp"

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor((1.0 - q) * static_cast<double>(n) + 1e-9));
}

Quantile quantile(std::vector<double> values, double q) {
  Quantile result;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  result.value = pipeopt::util::Summary::sorted_quantile(values, q);
  result.supported = samples_beyond(values.size(), q) >= 10;
  return result;
}

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> defs = {
      // End-to-end, per workload.
      {"setup_s", "s", false},
      {"throughput_rps", "1/s", false},
      {"latency_p50_ms", "ms", false},
      {"latency_p99_ms", "ms", false},
      {"slo_share", "ratio", false},
      {"ok_share", "ratio", false},
      {"optimal_share", "ratio", false},
      {"sweep_latency_p50_ms", "ms", false},
      {"cpu_ms_per_req", "ms", false},
      {"peak_rss_mb", "MB", false},
      // Per layer, from the traced run.
      {"client.send_lag_p99_ms", "ms", true},
      {"client.req_bytes_mean", "bytes", true},
      {"client.resp_bytes_mean", "bytes", true},
      {"io.parse_us", "us", true},
      {"io.key_us", "us", true},
      {"io.format_us", "us", true},
      {"server.request_us_p50", "us", true},
      {"server.request_us_p99", "us", true},
      {"server.wire_us_p50", "us", true},
      {"server.phase.parse_us_p50", "us", true},
      {"server.phase.cache_lookup_us_p50", "us", true},
      {"server.phase.queue_wait_us_p50", "us", true},
      {"server.phase.bind_us_p50", "us", true},
      {"server.phase.solve_us_p50", "us", true},
      {"server.phase.format_us_p50", "us", true},
      {"api.plan_us", "us", true},
      {"api.execute_us", "us", true},
      {"api.queue_hop_us", "us", true},
      {"api.cache_hit_share", "ratio", true},
      {"api.cache_evictions_per_kreq", "1/kreq", true},
      {"api.sweep_points_per_sweep", "count", true},
      {"api.sweep_us_per_point", "us", true},
      {"solvers.polynomial_share", "ratio", true},
      {"solvers.exact_share", "ratio", true},
      {"solvers.heuristic_share", "ratio", true},
      {"exact.nodes_per_req", "count", true},
      {"exact.nodes_per_s", "1/s", true},
      {"heuristics.evals_per_req", "count", true},
      {"core.evals_per_s", "1/s", true},
      {"router.hop_us_p50", "us", true},
      {"router.relay_us_p50", "us", true},
      {"router.shard_share_max", "ratio", true},
      {"router.shed", "count", true},
      {"router.retries", "count", true},
      {"router.cpu_share", "ratio", true},
      {"obs.trace_overhead_share", "ratio", true},
      {"host.procs_running_mean", "count", true},
      {"host.cores_busy", "cores", true},
      {"proc.client_cores", "cores", true},
      {"proc.router_cores", "cores", true},
      {"proc.shard0_cores", "cores", true},
      {"proc.shard1_cores", "cores", true},
      {"path.client_us", "us", true},
      {"path.router_us", "us", true},
      {"path.server_other_us", "us", true},
      {"path.parse_us", "us", true},
      {"path.cache_lookup_us", "us", true},
      {"path.queue_wait_us", "us", true},
      {"path.bind_us", "us", true},
      {"path.solve_us", "us", true},
      {"path.format_us", "us", true},
  };
  return defs;
}

namespace {

const MetricDef& find_def(const std::string& name) {
  for (const MetricDef& def : catalogue()) {
    if (name == def.name) return def;
  }
  throw std::invalid_argument("metric '" + name + "' is not catalogued");
}

/// Shortest round-trip decimal; non-finite values (which JSON cannot
/// carry) print as -1 and are flagged unsupported by the caller.
std::string number(double value) {
  return std::isfinite(value) ? pipeopt::io::format_double_exact(value) : "-1";
}

}  // namespace

std::string unit_of(const std::string& name) { return find_def(name).unit; }

void Report::set(const std::string& name, double value, std::size_t samples) {
  (void)find_def(name);
  values_[name] = Measured{value, samples, std::isfinite(value)};
}

void Report::set(const std::string& name, const Quantile& q) {
  (void)find_def(name);
  values_[name] = Measured{q.value, q.samples,
                           q.supported && std::isfinite(q.value)};
}

std::vector<std::string> Report::missing(bool traced) const {
  std::vector<std::string> names;
  for (const MetricDef& def : catalogue()) {
    if (def.per_layer == traced && !values_.contains(def.name)) {
      names.emplace_back(def.name);
    }
  }
  return names;
}

std::string record_line(const RunInfo& info, const std::string& name,
                        const Measured& measured) {
  pipeopt::io::FlatJsonWriter writer;
  writer.field("record", "perfbench");
  writer.field("workload", info.workload);
  writer.field("seed", std::to_string(info.seed));
  writer.field("trace", info.traced ? "1" : "0");
  writer.field("git_sha", info.git_sha);
  writer.field("build_type", info.build_type);
  writer.field("nproc", std::to_string(info.nproc));
  writer.field("metric", name);
  writer.field("value", number(measured.value));
  writer.field("unit", unit_of(name));
  writer.field("samples", std::to_string(measured.samples));
  writer.field("supported", measured.supported ? "1" : "0");
  return std::move(writer).str();
}

std::string summary_line(bool correct, std::uint64_t attempted,
                         std::uint64_t failed, const Report& report) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, measured] : report.values()) {
    if (!first) line += ", ";
    first = false;
    line += pipeopt::io::json_quote(name) + ": {\"value\": " +
            number(measured.value) +
            ", \"unit\": " + pipeopt::io::json_quote(unit_of(name)) + "}";
  }
  line += "}}";
  return line;
}

}  // namespace perfbench
