/// \file perfbench_tests.cpp
/// The benchmark's own tests: seeded streams are reproducible, the
/// percentile helper honours the ten-beyond rule, every metric name is
/// well-formed and declared in BENCHMARK.json, and result records parse
/// back. Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "report.hpp"
#include "stream.hpp"
#include "util/numeric.hpp"

namespace perfbench {
namespace {

std::vector<std::string> lines_of(const Stream& stream) {
  std::vector<std::string> lines;
  for (const PoolEntry& entry : stream.pool) lines.push_back(entry.line);
  return lines;
}

TEST(Stream, SameSeedGivesByteIdenticalRequestStreams) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(spec.name);
    const Stream a = make_stream(spec, 7, 3.0);
    const Stream b = make_stream(spec, 7, 3.0);
    EXPECT_EQ(lines_of(a), lines_of(b));
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.due_s, b.due_s);
    ASSERT_FALSE(a.order.empty());
    EXPECT_EQ(a.due_s.size(), a.order.size());
    EXPECT_TRUE(std::is_sorted(a.due_s.begin(), a.due_s.end()));
    EXPECT_LT(a.due_s.back(), 3.0);

    const Stream c = make_stream(spec, 8, 3.0);
    EXPECT_NE(lines_of(a), lines_of(c));
  }
}

TEST(Stream, PoolsAreDistinctAndCarrySomeSweeps) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(spec.name);
    const Stream stream = make_stream(spec, 11, 3.0);
    const std::vector<std::string> lines = lines_of(stream);
    EXPECT_EQ(std::set<std::string>(lines.begin(), lines.end()).size(), lines.size());
    std::size_t sweeps = 0;
    for (const std::uint32_t i : stream.order) {
      ASSERT_LT(i, stream.pool.size());
      sweeps += stream.pool[i].kind == Kind::Pareto ? 1 : 0;
    }
    // Every workload carries a few sweeps, so sweep latency is always
    // measured.
    EXPECT_GT(sweeps, 0u);
    EXPECT_LT(sweeps * 10, stream.order.size());
  }
}

TEST(Stream, StripWallRemovesOnlyTheWallField) {
  EXPECT_EQ(strip_wall(R"({"type":"result","value":"2","wall_s":"0.001","diag.nodes":"3"})"),
            R"({"type":"result","value":"2","diag.nodes":"3"})");
  EXPECT_EQ(strip_wall(R"({"type":"pong"})"), R"({"type":"pong"})");
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5).value, 50.5);
  EXPECT_DOUBLE_EQ(quantile(values, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0).value, 100.0);
  EXPECT_EQ(quantile(values, 0.5).samples, 100u);
  EXPECT_FALSE(quantile({}, 0.5).supported);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_FALSE(quantile(std::vector<double>(19, 1.0), 0.5).supported);
  EXPECT_TRUE(quantile(std::vector<double>(20, 1.0), 0.5).supported);
  EXPECT_FALSE(quantile(std::vector<double>(999, 1.0), 0.99).supported);
  EXPECT_TRUE(quantile(std::vector<double>(1000, 1.0), 0.99).supported);
}

/// BENCHMARK.json's metric and workload names by section.
struct Declared {
  std::map<std::string, std::string> end_to_end, per_layer;  ///< name -> unit
  std::set<std::string> workloads;
};

Declared read_benchmark_json() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t starts[] = {json.find("\"workloads\""), json.find("\"end_to_end\""),
                                json.find("\"per_layer\"")};
  const std::regex entry(R"re("name"\s*:\s*"([^"]*)"(?:\s*,\s*"unit"\s*:\s*"([^"]*)")?)re");
  Declared declared;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    // Each entry belongs to the nearest section key before it.
    int section = -1;
    for (int s = 0; s < 3; ++s) {
      if (starts[s] != std::string::npos && starts[s] < at &&
          (section < 0 || starts[s] > starts[section])) {
        section = s;
      }
    }
    const std::string name = (*it)[1];
    if (section == 0) declared.workloads.insert(name);
    if (section == 1) declared.end_to_end[name] = (*it)[2];
    if (section == 2) declared.per_layer[name] = (*it)[2];
  }
  return declared;
}

TEST(Names, EveryEmittedNameIsWellFormedAndDeclared) {
  const Declared declared = read_benchmark_json();
  const std::regex name_form("[A-Za-z0-9_.-]+");
  std::map<std::string, std::string> e2e, layer;
  for (const MetricDef& def : catalogue()) {
    EXPECT_TRUE(std::regex_match(def.name, name_form)) << def.name;
    (def.per_layer ? layer : e2e)[def.name] = def.unit;
  }
  EXPECT_EQ(e2e, declared.end_to_end);
  EXPECT_EQ(layer, declared.per_layer);
  std::set<std::string> names;
  for (const WorkloadSpec& spec : workloads()) {
    EXPECT_TRUE(std::regex_match(spec.name, name_form)) << spec.name;
    names.insert(spec.name);
  }
  EXPECT_EQ(names, declared.workloads);
}

TEST(Report, RejectsUncataloguedNamesAndListsMissingOnes) {
  Report report;
  EXPECT_THROW(report.set("no.such.metric", 1.0, 1), std::invalid_argument);
  report.set("setup_s", 0.25, 5);
  const std::vector<std::string> missing = report.missing(false);
  EXPECT_EQ(std::count(missing.begin(), missing.end(), "setup_s"), 0);
  EXPECT_EQ(std::count(missing.begin(), missing.end(), "latency_p50_ms"), 1);
}

TEST(Report, RecordsParseBack) {
  const RunInfo info{"solve_heavy", 42, false, "abc123", "Release", 4};
  const Measured measured{0.1 + 0.2, 12345, true};
  const auto fields =
      pipeopt::io::parse_flat_json(record_line(info, "latency_p50_ms", measured));
  std::map<std::string, std::string> map(fields.begin(), fields.end());
  EXPECT_EQ(map["workload"], "solve_heavy");
  EXPECT_EQ(map["seed"], "42");
  EXPECT_EQ(map["git_sha"], "abc123");
  EXPECT_EQ(map["build_type"], "Release");
  EXPECT_EQ(map["nproc"], "4");
  EXPECT_EQ(map["metric"], "latency_p50_ms");
  EXPECT_EQ(map["unit"], "ms");
  EXPECT_EQ(map["samples"], "12345");
  EXPECT_EQ(pipeopt::util::parse_number<double>(map["value"]), 0.1 + 0.2);
}

TEST(Report, SummaryLineCarriesEveryMetricWithItsUnit) {
  Report report;
  report.set("setup_s", 0.5, 5);
  report.set("latency_p50_ms", Quantile{1.25, 40, true});
  EXPECT_EQ(summary_line(true, 40, 0, report),
            R"({"correct": true, "attempted": 40, "failed": 0, "metrics": {)"
            R"("latency_p50_ms": {"value": 1.25, "unit": "ms"}, )"
            R"("setup_s": {"value": 0.5, "unit": "s"}}})");
}

}  // namespace
}  // namespace perfbench
