#include "fleet.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "io/json.hpp"
#include "util/fdio.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The port after the last ':' of the first token that has one, in a
/// startup announce line ("... listening on 127.0.0.1:4242 ...").
std::uint16_t announced_port(const std::string& line, const std::string& after) {
  const std::size_t at = line.find(after);
  if (at == std::string::npos) return 0;
  const std::size_t colon = line.find(':', at + after.size());
  if (colon == std::string::npos) return 0;
  return static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
}

/// True while `pid` exists and is not a zombie waiting to be reaped.
bool running(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return false;
  const std::size_t paren = stat.rfind(')');
  return paren != std::string::npos && paren + 2 < stat.size() &&
         stat[paren + 2] != 'Z';
}

std::string field_of(const pipeopt::io::JsonFields& fields,
                     const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return {};
}

}  // namespace

ProcSample sample_process(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = read_file(base + "/stat");
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) throw std::runtime_error("bad " + base);
  std::istringstream fields(stat.substr(paren + 2));
  std::string token;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15, in clock ticks.
  for (int field = 3; field <= 15 && fields >> token; ++field) {
    if (field == 14) utime = std::stod(token);
    if (field == 15) stime = std::stod(token);
  }
  ProcSample sample;
  sample.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::istringstream status(read_file(base + "/status"));
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample.hwm_mb = std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return sample;
}

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double procs_running() {
  std::ifstream in("/proc/stat");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("procs_running ", 0) == 0) return std::stod(line.substr(14));
  }
  return 0.0;
}

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::string query(std::uint16_t port, const std::string& line) {
  const int fd = connect_local(port);
  if (fd < 0) throw std::runtime_error("cannot connect to port " + std::to_string(port));
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string response;
  pipeopt::util::FdLineReader reader(fd);
  const bool ok = pipeopt::util::write_line(fd, line) && reader.next_line(response) &&
                  reader.last_terminated();
  ::close(fd);
  if (!ok) throw std::runtime_error("no answer to " + line);
  return response;
}

Deployment::Deployment(const std::string& pipeopt, const WorkloadSpec& spec,
                       const std::string& trace_prefix) {
  std::vector<std::string> args{pipeopt};
  const bool fleet = spec.topology == Topology::Fleet;
  if (fleet) {
    args.insert(args.end(), {"route", "--spawn", std::to_string(spec.shards)});
  } else {
    args.emplace_back("serve");
  }
  args.insert(args.end(), {"--port", "0", "--jobs", std::to_string(spec.jobs)});
  if (spec.cache_entries > 0) {
    args.insert(args.end(),
                {"--cache-entries", std::to_string(spec.cache_entries)});
  }
  if (!trace_prefix.empty()) {
    args.insert(args.end(), {"--trace-log", trace_prefix + ".top.jsonl"});
    if (fleet) {
      args.insert(args.end(), {"--shard-trace-log", trace_prefix + ".shard"});
    }
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const Clock::time_point launch = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The programs die with the benchmark even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  pipeopt::util::FdLineReader reader(stdout_fd_);
  std::string line;
  while (port_ == 0) {
    if (!reader.next_line(line)) {
      stop();
      throw std::runtime_error("pipeopt exited before listening");
    }
    if (line.find(" shard ") != std::string::npos) {
      shard_ports_.push_back(announced_port(line, " at "));
      const std::size_t at = line.find(" pid ");
      if (at != std::string::npos) shard_pids_.push_back(std::stoi(line.substr(at + 5)));
    } else if (line.find("listening on") != std::string::npos) {
      port_ = announced_port(line, "listening on ");
    }
  }

  const std::string want_up = std::to_string(spec.shards);
  for (;;) {
    try {
      const auto fields = pipeopt::io::parse_flat_json(query(port_, "{\"type\":\"health\"}"));
      if (!fleet || field_of(fields, "shards_up") == want_up) break;
    } catch (const std::exception&) {
      // not ready yet
    }
    if (seconds_since(launch) > 60.0) {
      stop();
      throw std::runtime_error("pipeopt never became healthy");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  setup_s_ = seconds_since(launch);
}

std::vector<pid_t> Deployment::pids() const {
  std::vector<pid_t> all{pid_};
  all.insert(all.end(), shard_pids_.begin(), shard_pids_.end());
  return all;
}

void Deployment::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  // Shards are the router's children: it reaps them while draining. Wait
  // until each is gone, and kill any the router left behind.
  for (const pid_t shard : shard_pids_) {
    const Clock::time_point start = Clock::now();
    while (running(shard) && seconds_since(start) < 12.0) {
      if (seconds_since(start) > 10.0) ::kill(shard, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  shard_pids_.clear();
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Deployment::~Deployment() { stop(); }

}  // namespace perfbench
