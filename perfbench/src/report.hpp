#pragma once

/// \file report.hpp
/// The benchmark's statistics and output: the percentile rule, the metric
/// catalogue (every name the benchmark can emit, with its unit and the run
/// kind that emits it) and the result records.
///
/// Output of one run, on stdout: one flat JSON record line per metric
/// (`record_line`, parseable with `io::parse_flat_json`), then the final
/// summary line the harness reads (`summary_line`).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A quantile over raw samples, with the sample count behind it.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  /// True when at least 10 samples lie beyond the quantile's rank, the
  /// least tail that makes the reading repeatable. A p99 needs 1000
  /// samples, a median 20.
  bool supported = false;
};

/// The q-quantile of `values` (linear interpolation between order
/// statistics, `util::Summary`'s convention); value 0 and unsupported on
/// an empty sample.
[[nodiscard]] Quantile quantile(std::vector<double> values, double q);

/// Samples ranked beyond the q-quantile of n samples: floor((1 - q) n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// One catalogued metric.
struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;  ///< emitted by traced runs; end-to-end otherwise
};

/// Every metric the benchmark emits, end-to-end first.
[[nodiscard]] const std::vector<MetricDef>& catalogue();

/// Metadata every record carries.
struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string git_sha;
  std::string build_type;
  unsigned nproc = 0;
};

/// One measured metric value with its sample count.
struct Measured {
  double value = 0.0;
  std::size_t samples = 0;
  bool supported = true;  ///< false: a percentile short of its tail
};

/// The metrics of one run, keyed by catalogue name.
class Report {
 public:
  /// Records `name`. \throws std::invalid_argument for a name outside the
  /// catalogue or one of the other run kind.
  void set(const std::string& name, double value, std::size_t samples);
  void set(const std::string& name, const Quantile& q);

  /// Names of this run kind's catalogue entries that were never set.
  [[nodiscard]] std::vector<std::string> missing(bool traced) const;

  [[nodiscard]] const std::map<std::string, Measured>& values() const {
    return values_;
  }

 private:
  std::map<std::string, Measured> values_;
};

/// Unit of a catalogued metric. \throws std::invalid_argument otherwise.
[[nodiscard]] std::string unit_of(const std::string& name);

/// One flat JSON record line for one metric.
[[nodiscard]] std::string record_line(const RunInfo& info,
                                      const std::string& name,
                                      const Measured& measured);

/// The final line: {"correct":..,"attempted":..,"failed":..,"metrics":
/// {"<name>":{"value":..,"unit":".."},...}} over the report's metrics.
[[nodiscard]] std::string summary_line(bool correct, std::uint64_t attempted,
                                       std::uint64_t failed,
                                       const Report& report);

}  // namespace perfbench
