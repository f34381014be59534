#pragma once

/// \file loadgen.hpp
/// The load generator: one thread multiplexing its TCP connections with
/// ppoll(2). Request i is sent at its due time on the connection with the
/// fewest requests outstanding (pipelined), and its latency counts from
/// the due time, so a stall also delays every request due during it.
/// Every response line is checked against the stream's reference, with
/// `wall_s` removed.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stream.hpp"

namespace perfbench {

/// One request as the client saw it. Times are seconds since load start.
struct Sample {
  std::uint32_t pool_index = 0;
  std::uint64_t seq = 0;  ///< position in the stream; names the trace id
  double due = 0.0;       ///< when it should have been sent
  double sent = 0.0;
  double done = 0.0;      ///< when its last response line arrived
  bool ok = false;        ///< answered, and every line matched
  bool in_window = false; ///< due inside the timed window
  std::uint32_t req_bytes = 0;
  std::uint32_t resp_bytes = 0;
};

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  double warmup_s = 0.0;
  double window_s = 0.0;
  /// Splice `"trace":"<trace_id(seq)>"` into every request line.
  bool traced = false;
  /// Called when the timed window opens and when it closes.
  std::function<void()> on_window_start;
  std::function<void()> on_window_end;
  /// Called about every 10 ms inside the window.
  std::function<void()> on_tick;
};

struct LoadResult {
  std::vector<Sample> samples;  ///< every request sent, warm-up included
  std::size_t mismatches = 0;   ///< response lines unlike the reference
  std::size_t errors = 0;       ///< error lines and lost connections
};

[[nodiscard]] LoadResult run_load(const Stream& stream,
                                  const LoadOptions& options);

/// The 16-hex-digit trace id of request `seq`.
[[nodiscard]] std::string trace_id(std::uint64_t seq);

}  // namespace perfbench
