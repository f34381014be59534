#pragma once

/// \file fleet.hpp
/// The programs under test as live processes: one `pipeopt serve`, or one
/// `pipeopt route --spawn N` with its shards, launched, health-checked,
/// accounted for through /proc and stopped.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stream.hpp"

namespace perfbench {

/// CPU time (user + system) and peak resident set of one process.
struct ProcSample {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
};

/// Reads /proc/<pid>/stat and /proc/<pid>/status. \throws on a vanished pid.
[[nodiscard]] ProcSample sample_process(pid_t pid);

/// The client's own CPU time (this process, all threads).
[[nodiscard]] double self_cpu_seconds();

/// `procs_running` from /proc/stat: runnable tasks on the host right now.
[[nodiscard]] double procs_running();

/// One request line over a fresh connection, answered with one line.
/// \throws std::runtime_error when the exchange fails.
[[nodiscard]] std::string query(std::uint16_t port, const std::string& line);

/// Opens a TCP connection to 127.0.0.1:port; -1 on failure.
[[nodiscard]] int connect_local(std::uint16_t port);

/// A launched deployment of one workload.
class Deployment {
 public:
  /// Launches the workload's programs from the `pipeopt` binary and waits
  /// for the first healthy `health` answer (for a fleet: every shard up).
  /// A non-empty `trace_prefix` turns span logs on: `<prefix>.top.jsonl`
  /// for the server or router, `<prefix>.shard.<i>.jsonl` per shard.
  Deployment(const std::string& pipeopt, const WorkloadSpec& spec,
             const std::string& trace_prefix);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Drains the programs with SIGTERM and waits until every process ended.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Shard listen ports (Fleet only).
  [[nodiscard]] const std::vector<std::uint16_t>& shard_ports() const {
    return shard_ports_;
  }
  /// Launch to first healthy answer.
  [[nodiscard]] double setup_seconds() const { return setup_s_; }
  /// Every process of the deployment: the server or router first, then
  /// the shards.
  [[nodiscard]] std::vector<pid_t> pids() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::uint16_t> shard_ports_;
  std::vector<pid_t> shard_pids_;
  double setup_s_ = 0.0;
};

}  // namespace perfbench
