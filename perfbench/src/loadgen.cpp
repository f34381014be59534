#include "loadgen.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "fleet.hpp"
#include "util/fdio.hpp"

namespace perfbench {

std::string trace_id(std::uint64_t seq) {
  char text[17];
  std::snprintf(text, sizeof text, "%016" PRIx64, seq + 1);
  return text;
}

namespace {

using Clock = std::chrono::steady_clock;

/// A request on the wire, waiting for its answer.
struct Pending {
  std::size_t sample = 0;  ///< index into LoadResult::samples
  std::size_t lines = 0;   ///< response lines received so far
};

struct Connection {
  int fd = -1;
  std::string buffer;
  std::deque<Pending> pending;
};

constexpr double kTick = 0.010;
constexpr double kDrainLimit = 120.0;
constexpr std::size_t kMismatchesShown = 3;

class LoadLoop {
 public:
  LoadLoop(const Stream& stream, const LoadOptions& options)
      : stream_(stream), options_(options), start_(Clock::now()) {
    for (std::size_t i = 0; i < options.connections; ++i) {
      Connection connection;
      connection.fd = connect_local(options.port);
      if (connection.fd < 0) {
        throw std::runtime_error("load generator cannot connect");
      }
      connections_.push_back(std::move(connection));
    }
  }

  ~LoadLoop() {
    for (const Connection& connection : connections_) {
      if (connection.fd >= 0) ::close(connection.fd);
    }
  }

  LoadLoop(const LoadLoop&) = delete;
  LoadLoop& operator=(const LoadLoop&) = delete;

  LoadResult run() {
    const double w0 = options_.warmup_s;
    const double w1 = options_.warmup_s + options_.window_s;
    // The arrivals due before the window closes; later ones are not sent.
    const std::size_t arrivals = static_cast<std::size_t>(
        std::lower_bound(stream_.due_s.begin(), stream_.due_s.end(), w1) -
        stream_.due_s.begin());
    double last_tick = 0.0;
    bool started = false;
    bool ended = false;
    for (;;) {
      double t = now();
      if (!started && t >= w0) {
        started = true;
        if (options_.on_window_start) options_.on_window_start();
        last_tick = now();
      }
      if (!ended && t >= w1) {
        ended = true;
        if (options_.on_window_end) options_.on_window_end();
      }
      if (started && !ended && t - last_tick >= kTick) {
        last_tick = t;
        if (options_.on_tick) options_.on_tick();
      }
      while (next_ < arrivals && stream_.due_s[next_] <= t) send_next();
      if (ended && next_ >= arrivals && outstanding() == 0) break;
      if (ended && t > w1 + kDrainLimit) {
        abandon_outstanding();
        break;
      }
      // Sleep until the next due request, the next tick or an answer.
      double wait = kTick;
      if (next_ < arrivals) wait = std::min(wait, stream_.due_s[next_] - t);
      if (!started) wait = std::min(wait, w0 - t);
      if (started && !ended) wait = std::min(wait, w1 - t);
      poll_once(std::max(wait, 0.0));
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] std::size_t outstanding() const {
    std::size_t total = 0;
    for (const Connection& connection : connections_) {
      total += connection.pending.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t least_loaded() const {
    std::size_t best = 0;
    for (std::size_t c = 1; c < connections_.size(); ++c) {
      if (connections_[c].fd >= 0 &&
          (connections_[best].fd < 0 ||
           connections_[c].pending.size() < connections_[best].pending.size())) {
        best = c;
      }
    }
    return best;
  }

  /// Sends the stream's next request on the least loaded connection.
  void send_next() {
    const std::uint64_t seq = next_++;
    Sample sample;
    sample.seq = seq;
    sample.pool_index = stream_.order[seq];
    sample.due = stream_.due_s[seq];
    sample.in_window = sample.due >= options_.warmup_s;
    std::string line = stream_.pool[sample.pool_index].line;
    if (options_.traced) {
      line.insert(1, "\"trace\":\"" + trace_id(seq) + "\",");
    }
    sample.req_bytes = static_cast<std::uint32_t>(line.size() + 1);
    Connection& connection = connections_[least_loaded()];
    sample.sent = now();
    result_.samples.push_back(sample);
    if (connection.fd < 0 ||
        !pipeopt::util::write_line(connection.fd, std::move(line))) {
      fail(result_.samples.size() - 1);
      return;
    }
    connection.pending.push_back(Pending{result_.samples.size() - 1, 0});
  }

  void fail(std::size_t index) {
    Sample& sample = result_.samples[index];
    sample.ok = false;
    sample.done = now();
    ++result_.errors;
  }

  void abandon_outstanding() {
    for (Connection& connection : connections_) {
      for (const Pending& pending : connection.pending) fail(pending.sample);
      connection.pending.clear();
    }
  }

  void poll_once(double wait_s) {
    std::vector<pollfd> fds;
    for (const Connection& connection : connections_) {
      fds.push_back(pollfd{connection.fd, POLLIN, 0});
    }
    const auto whole = static_cast<time_t>(wait_s);
    timespec timeout{whole, static_cast<long>((wait_s - static_cast<double>(whole)) * 1e9)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].fd >= 0 && (fds[c].revents & (POLLIN | POLLHUP | POLLERR))) {
        receive(c);
      }
    }
  }

  void receive(std::size_t c) {
    Connection& connection = connections_[c];
    char chunk[65536];
    const ssize_t n = ::read(connection.fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) {
      ::close(connection.fd);
      connection.fd = -1;
      for (const Pending& pending : connection.pending) fail(pending.sample);
      connection.pending.clear();
      return;
    }
    // Acknowledge at once. A client that delays its ACKs makes a server
    // without TCP_NODELAY hold its next write (the next line of a sweep, or
    // a pipelined answer) until the ~40 ms delayed-ACK timer fires; that
    // stall would be the client's doing, and whether it hits depends on
    // timing, so it would make every latency bimodal.
    const int one = 1;
    ::setsockopt(connection.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    connection.buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t newline = connection.buffer.find('\n');
         newline != std::string::npos;
         newline = connection.buffer.find('\n', begin)) {
      on_line(c, connection.buffer.substr(begin, newline - begin));
      begin = newline + 1;
    }
    connection.buffer.erase(0, begin);
  }

  void on_line(std::size_t c, std::string line) {
    Connection& connection = connections_[c];
    if (connection.pending.empty()) {
      report_mismatch("(no request outstanding)", line);
      return;
    }
    Pending& pending = connection.pending.front();
    Sample& sample = result_.samples[pending.sample];
    const PoolEntry& entry = stream_.pool[sample.pool_index];
    sample.resp_bytes += static_cast<std::uint32_t>(line.size() + 1);
    bool last = false;
    if (line.rfind("{\"type\":\"error\"", 0) == 0) {
      ++result_.errors;
      std::fprintf(stderr, "perfbench: error answer to request %" PRIu64 ": %s\n",
                   sample.seq, line.c_str());
      sample.ok = false;
      last = true;
    } else {
      const std::string got = strip_wall(std::move(line));
      const std::size_t k = pending.lines++;
      const bool matches = k < entry.expected.size() && got == entry.expected[k];
      if (!matches) {
        report_mismatch(k < entry.expected.size() ? entry.expected[k] : "(none)",
                        got);
      }
      sample.ok = (k == 0 || sample.ok) && matches;
      last = entry.kind == Kind::Solve ||
             got.rfind("{\"type\":\"pareto\"", 0) == 0;
      if (last && pending.lines != entry.expected.size()) {
        sample.ok = false;
      }
    }
    if (!last) return;
    sample.done = now();
    connection.pending.pop_front();
  }

  void report_mismatch(const std::string& expected, const std::string& got) {
    if (result_.mismatches++ < kMismatchesShown) {
      std::fprintf(stderr,
                   "perfbench: MISMATCH against the in-process reference\n"
                   "  expected: %s\n  got:      %s\n",
                   expected.c_str(), got.c_str());
    }
  }

  const Stream& stream_;
  const LoadOptions& options_;
  const Clock::time_point start_;
  std::vector<Connection> connections_;
  std::uint64_t next_ = 0;  ///< requests sent: the next position in `order`
  LoadResult result_;
};

}  // namespace

LoadResult run_load(const Stream& stream, const LoadOptions& options) {
  LoadLoop loop(stream, options);
  return loop.run();
}

}  // namespace perfbench
