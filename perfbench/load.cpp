// perfbench_load: runs one workload against a freshly started server
// process over loopback TCP and prints its metrics.
//
//   perfbench_load --workload browse|order|scan --seed N --seconds S
//                  --trace 0|1 --bin DIR [--out DIR]
//   perfbench_load --self-test --bin DIR
//
// --bin names the directory holding perfbench_server(_traced); --out is
// where the traced run writes its span table. The last line of standard
// output is the result object; everything before it is for people.
//
// A run starts the server several times to time its set-up, keeps the last
// one, and drives it through three phases with fixed request counts:
//   warm-up     closed loop, not counted;
//   fixed rate  open loop on a seeded Poisson schedule; latency runs from
//               each request's scheduled send time;
//   capacity    closed loop, every connection busy.
// Every response is checked (check.h). A run whose driver fell behind its
// schedule, or whose completions fell behind arrivals, is rejected.
//
// --trace 1 runs the workload twice, on the plain and on the traced server,
// and prints the per-layer metrics of the traced pass plus the difference
// between the two passes (the cost of tracing).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/check.h"
#include "perfbench/protocol.h"
#include "perfbench/workload.h"

extern char** environ;

namespace perfbench {

namespace {

// Server start-ups per run; setup_s is their median.
constexpr int kSetupRuns = 15;
// p50_ms and p99_ms are read per window of kWindowRequests fixed-rate
// requests (a twentieth to a quarter second of arrivals), and reported as the
// kAcrossWindows quantile over the windows: the latency nine windows in ten
// reach or exceed.
constexpr std::size_t kWindowRequests = 500;
constexpr double kAcrossWindows = 0.10;
// Run validity: the driver's own lateness, and how far the last completion
// of the fixed-rate phase may trail its last arrival (share of the phase).
constexpr double kMaxLagP99Ms = 2.0;
constexpr double kMaxBacklogShare = 0.05;

// Route pages with a handler_ms.<page> metric (every TPC-W route).
constexpr const char* kPages[] = {
    "admin_request", "admin_response", "best_sellers",  "buy_confirm",
    "buy_request",   "customer_registration", "execute_search", "home",
    "login",         "logout",        "new_products",  "order_display",
    "order_inquiry", "product_detail", "search_request", "shopping_cart"};

double ns_to_ms(double ns) { return ns / 1e6; }

// Linear interpolation between closest ranks of sorted values.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// ---------------------------------------------------------------------------
// The server process, driven over its stdin/stdout.

class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::vector<std::string> args) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    ::posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    to_ = in[1];
    from_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      close_pipes();
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Waits for the server's "READY <port>" line.
  std::uint16_t wait_ready() {
    const std::string line = read_line(60'000);
    if (line.rfind("READY ", 0) != 0) {
      throw std::runtime_error("server said '" + line + "' instead of READY");
    }
    return static_cast<std::uint16_t>(std::stoul(line.substr(6)));
  }

  std::string command(const std::string& text) {
    const std::string line = text + "\n";
    if (::write(to_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      throw std::runtime_error("server control pipe closed");
    }
    return read_line(60'000);
  }

  // Asks the server to quit and waits for it; kills it if it does not.
  // Returns true when it exited cleanly with status 0.
  bool stop() {
    if (pid_ <= 0) return true;
    static constexpr char kQuit[] = "quit\n";
    [[maybe_unused]] const ssize_t n = ::write(to_, kQuit, sizeof kQuit - 1);
    close_pipes();
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 3000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) ::usleep(10'000);
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string read_line(int timeout_ms) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{from_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) throw std::runtime_error("server did not answer");
      char chunk[65536];
      const ssize_t got = ::read(from_, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw std::runtime_error("server exited");
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  void close_pipes() {
    if (to_ >= 0) ::close(to_);
    if (from_ >= 0) ::close(from_);
    to_ = from_ = -1;
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buffer_;
};

using Snapshot = std::map<std::string, double>;

// Parses the server's flat {"key":number,...} line.
Snapshot parse_snapshot(const std::string& line) {
  Snapshot snap;
  std::size_t pos = 0;
  while ((pos = line.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = line.find('"', pos + 1);
    const std::size_t colon = line.find(':', key_end);
    if (key_end == std::string::npos || colon == std::string::npos) break;
    snap[line.substr(pos + 1, key_end - pos - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
    pos = line.find_first_of(",}", colon);
  }
  if (snap.empty()) throw std::runtime_error("bad snapshot: " + line);
  return snap;
}

Snapshot snapshot(ServerProcess& server) {
  return parse_snapshot(server.command("snap"));
}

double delta(const Snapshot& after, const Snapshot& before,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

// ---------------------------------------------------------------------------
// One keep-alive client connection with blocking I/O.

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends one request and reads one response, framed by Content-Length,
  // into `response`. Returns what went wrong, or an empty string. On a
  // short read `response` holds what arrived, for the checker to judge.
  std::string roundtrip(const std::string& request, std::string& response) {
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::string("send: ") + std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      if (const auto frame = frame_length(buffer_)) {
        if (*frame == 0) {  // no Content-Length: cannot frame, let it fail
          response.swap(buffer_);
          buffer_.clear();
          return {};
        }
        if (buffer_.size() >= *frame) {
          response.assign(buffer_, 0, *frame);
          buffer_.erase(0, *frame);
          return {};
        }
      }
      char chunk[65536];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        response.swap(buffer_);
        buffer_.clear();
        return got == 0 ? "connection closed mid-response"
                        : std::string("recv: ") + std::strerror(errno);
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Phases.

struct Sample {
  std::int64_t due = 0;   // scheduled send (open loop); = sent otherwise
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::int64_t lag = 0;   // sent - max(due, previous done): driver lateness
  std::uint64_t span = 0;
  const char* page = "";  // route or "static"
};

struct Failures {
  std::mutex mu;
  std::uint64_t count = 0;
  std::vector<std::string> first;

  void add(const std::string& what) {
    std::lock_guard lock(mu);
    ++count;
    if (first.size() < 10) first.push_back(what);
  }
};

// One visitor stream on one connection, with its session cookie.
class Visitor {
 public:
  Visitor(const Workload& workload, std::uint64_t seed, std::size_t index,
          std::uint16_t port, bool tracing)
      : stream_(workload, seed, index),
        index_(index),
        port_(port),
        tracing_(tracing) {}

  // Sends `count` requests. Open loop when `rate_rps` > 0: request k is due
  // at start + the k-th Poisson arrival of this stream's share of the rate.
  // Closed loop otherwise.
  std::vector<Sample> run(std::size_t count, std::int64_t start,
                          double rate_rps, std::uint64_t schedule_seed,
                          const Oracle& oracle, Failures& failures) {
    std::vector<Sample> samples;
    samples.reserve(count);
    tempest::Rng schedule(schedule_seed);
    const double mean_gap_ns =
        rate_rps > 0 ? 1e9 * static_cast<double>(kStreams) / rate_rps : 0.0;
    double due = static_cast<double>(start);
    std::int64_t previous_done = start;
    std::string raw;
    std::string response;
    sleep_until(start);
    for (std::size_t k = 0; k < count; ++k) {
      Request request = stream_.next();
      Sample s;
      s.page = request.expect.is_static ? "static" : page_name(request);
      s.span = tracing_ ? 1 + ordinal_ * kStreams + index_ : 0;
      ++ordinal_;
      build_request(request, s.span, raw);
      if (rate_rps > 0) {
        due += schedule.exponential(mean_gap_ns);
        s.due = static_cast<std::int64_t>(due);
        sleep_until(s.due);
      }
      s.sent = now_ns();
      if (rate_rps <= 0) s.due = s.sent;
      s.lag = s.sent - std::max(s.due, previous_done);
      std::string error = send(raw, response);
      s.done = now_ns();
      previous_done = s.done;
      if (error.empty()) error = check_response(oracle, request.expect, response);
      if (error.empty()) {
        if (request.login) cookie_ = session_cookie(response).value_or("");
        if (request.logout) cookie_.clear();
      } else {
        failures.add(request.target + ": " + error);
      }
      samples.push_back(s);
    }
    return samples;
  }

  std::uint64_t sent() const { return ordinal_; }

 private:
  static const char* page_name(const Request& request) {
    for (const char* page : kPages) {
      if (request.expect.path.compare(1, std::string::npos, page) == 0) {
        return page;
      }
    }
    return "other";
  }

  void build_request(const Request& request, std::uint64_t span,
                     std::string& raw) const {
    raw = "GET " + request.target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!cookie_.empty()) raw += "Cookie: tempest_sid=" + cookie_ + "\r\n";
    if (span != 0) {
      raw += std::string(kSpanHeader) + ": " + std::to_string(span) + "\r\n";
    }
    raw += "\r\n";
  }

  static void sleep_until(std::int64_t due_ns) {
    timespec ts{static_cast<time_t>(due_ns / 1'000'000'000),
                static_cast<long>(due_ns % 1'000'000'000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }

  // Reconnects after an I/O error so one failure does not end the stream.
  std::string send(const std::string& raw, std::string& response) {
    response.clear();
    try {
      if (!connection_) connection_ = std::make_unique<Connection>(port_);
    } catch (const std::exception& e) {
      return e.what();
    }
    std::string error = connection_->roundtrip(raw, response);
    if (!error.empty()) connection_.reset();
    return error;
  }

  Stream stream_;
  const std::size_t index_;
  const std::uint16_t port_;
  const bool tracing_;
  std::unique_ptr<Connection> connection_;
  std::string cookie_;
  std::uint64_t ordinal_ = 0;
};

struct Phase {
  std::int64_t start = 0;
  std::int64_t end = 0;  // last completion
  std::vector<Sample> samples;
};

Phase run_phase(std::vector<std::unique_ptr<Visitor>>& visitors,
                std::size_t per_stream, double rate_rps, std::uint64_t seed,
                const Oracle& oracle, Failures& failures) {
  Phase phase;
  phase.start = now_ns() + 1'000'000;
  std::vector<std::vector<Sample>> per_visitor(visitors.size());
  const auto drive = [&](std::size_t i) {
    per_visitor[i] = visitors[i]->run(per_stream, phase.start, rate_rps,
                                      seed * 1315423911u + i, oracle, failures);
  };
  // One thread per visitor, the calling thread included.
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < visitors.size(); ++i) threads.emplace_back(drive, i);
  drive(0);
  for (std::thread& t : threads) t.join();
  phase.end = phase.start;
  for (auto& samples : per_visitor) {
    for (const Sample& s : samples) phase.end = std::max(phase.end, s.done);
    phase.samples.insert(phase.samples.end(), samples.begin(), samples.end());
  }
  return phase;
}

// One pass of the workload against one server: warm-up, fixed rate,
// capacity, with server snapshots around the measured phases.
struct Pass {
  Phase fixed;
  Phase capacity;
  Snapshot before_fixed;
  Snapshot after_fixed;
  Snapshot end;
  std::uint64_t attempted = 0;
};

std::size_t per_stream(double per_s, double seconds) {
  return static_cast<std::size_t>(
      std::llround(per_s * seconds / static_cast<double>(kStreams)));
}

Pass run_pass(ServerProcess& server, std::uint16_t port,
              const Workload& workload, std::uint64_t seed, double seconds,
              bool tracing, const Oracle& oracle, Failures& failures) {
  std::vector<std::unique_ptr<Visitor>> visitors;
  for (std::size_t i = 0; i < kStreams; ++i) {
    visitors.push_back(
        std::make_unique<Visitor>(workload, seed, i, port, tracing));
  }
  Pass pass;
  run_phase(visitors, per_stream(workload.warmup_per_s, seconds), 0, seed,
            oracle, failures);
  pass.before_fixed = snapshot(server);
  pass.fixed = run_phase(visitors, per_stream(workload.fixed_per_s, seconds),
                         workload.rate_rps, seed, oracle, failures);
  pass.after_fixed = snapshot(server);
  pass.capacity =
      run_phase(visitors, per_stream(workload.capacity_per_s, seconds), 0,
                seed, oracle, failures);
  pass.end = snapshot(server);
  for (const auto& v : visitors) pass.attempted += v->sent();
  return pass;
}

std::size_t requests_per_pass(const Workload& workload, double seconds) {
  return kStreams * (per_stream(workload.warmup_per_s, seconds) +
                     per_stream(workload.fixed_per_s, seconds) +
                     per_stream(workload.capacity_per_s, seconds));
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<double> latencies_ms(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(ns_to_ms(double(s.done - s.due)));
  return out;
}

// Median latency of the first or last tenth of the fixed-rate arrivals.
double tenth_p50_ms(std::vector<Sample> samples, bool last) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  const std::size_t tenth = samples.size() / 10;
  const auto from = last ? samples.end() - static_cast<std::ptrdiff_t>(tenth)
                         : samples.begin();
  return median(latencies_ms({from, from + static_cast<std::ptrdiff_t>(tenth)}));
}

double lag_p99_ms(const std::vector<Sample>& samples) {
  std::vector<double> lags;
  for (const Sample& s : samples) lags.push_back(ns_to_ms(double(s.lag)));
  return quantile(std::move(lags), 0.99);
}

struct EndToEnd {
  double p50_ms = 0;
  double p99_ms = 0;
  double pooled_p50_ms = 0;
  double pooled_p99_ms = 0;
  double capacity_rps = 0;
  double cpu_ms_per_req = 0;
  double peak_rss_mb = 0;
};

// The fixed-rate samples in arrival order, cut into windows of
// kWindowRequests (the last window absorbs the remainder).
std::vector<std::vector<Sample>> windows(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  const std::size_t count =
      std::max<std::size_t>(1, samples.size() / kWindowRequests);
  std::vector<std::vector<Sample>> out(count);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[std::min(i / kWindowRequests, count - 1)].push_back(samples[i]);
  }
  return out;
}

// The `q` quantile of each window, then the kAcrossWindows quantile of
// those. Pauses of the VM slow everything for 1-5 s at a time and can only
// add latency; a low quantile across windows reads the windows they missed.
double windowed_ms(const std::vector<Sample>& samples, double q) {
  std::vector<double> per_window;
  for (const auto& window : windows(samples)) {
    per_window.push_back(quantile(latencies_ms(window), q));
  }
  return quantile(std::move(per_window), kAcrossWindows);
}

EndToEnd end_to_end(const Pass& pass) {
  EndToEnd e;
  const std::vector<double> lat = latencies_ms(pass.fixed.samples);
  e.p50_ms = windowed_ms(pass.fixed.samples, 0.50);
  e.p99_ms = windowed_ms(pass.fixed.samples, 0.99);
  e.pooled_p50_ms = quantile(lat, 0.50);
  e.pooled_p99_ms = quantile(lat, 0.99);
  e.capacity_rps = static_cast<double>(pass.capacity.samples.size()) /
                   (double(pass.capacity.end - pass.capacity.start) / 1e9);
  e.cpu_ms_per_req = delta(pass.after_fixed, pass.before_fixed, "cpu_ms") /
                     static_cast<double>(pass.fixed.samples.size());
  e.peak_rss_mb = pass.end.at("maxrss_kb") / 1024.0;
  return e;
}

// Returns why the pass is not a valid measurement, or an empty string.
std::string validity(const Pass& pass) {
  const double lag = lag_p99_ms(pass.fixed.samples);
  if (lag > kMaxLagP99Ms) {
    return "driver lagged its schedule: p99 lag " + std::to_string(lag) + " ms";
  }
  std::int64_t last_due = pass.fixed.start;
  for (const Sample& s : pass.fixed.samples) last_due = std::max(last_due, s.due);
  const double arrivals = double(last_due - pass.fixed.start);
  const double completions = double(pass.fixed.end - pass.fixed.start);
  if (completions > arrivals * (1.0 + kMaxBacklogShare)) {
    return "completions fell behind arrivals: last completion " +
           std::to_string(ns_to_ms(completions - arrivals)) +
           " ms after the last arrival";
  }
  return {};
}

// The per-layer metrics of a traced pass (fixed-rate phase).
std::vector<Metric> per_layer(const Pass& traced,
                              const std::vector<ServerSpan>& spans) {
  const Snapshot& a = traced.before_fixed;
  const Snapshot& b = traced.after_fixed;
  const auto d = [&](const std::string& key) { return delta(b, a, key); };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n = static_cast<double>(traced.fixed.samples.size());

  double pipeline_ns = 0;
  double tcp_self_ns = 0;
  double traced_requests = 0;
  for (const Sample& s : traced.fixed.samples) {
    if (s.span >= spans.size()) continue;
    const ServerSpan& span = spans[s.span];
    if (span.pipeline_start == 0 || span.pipeline_end == 0) continue;
    const double pipeline = double(span.pipeline_end - span.pipeline_start);
    pipeline_ns += pipeline;
    tcp_self_ns += double(s.done - s.sent) - pipeline;
    traced_requests += 1;
  }
  const double pipeline_ms = ns_to_ms(ratio(pipeline_ns, traced_requests));

  std::vector<Metric> m;
  m.push_back({"tcp.self_ms", ns_to_ms(ratio(tcp_self_ns, traced_requests)), "ms"});
  m.push_back({"tcp.requests_per_conn",
               ratio(traced.end.at("tcp_requests"), traced.end.at("tcp_accepted")),
               "req/conn"});
  m.push_back({"pipeline_ms", pipeline_ms, "ms"});
  double staged_s = 0;
  for (const char* stage : {"header", "cache", "static", "general", "lengthy", "render"}) {
    const std::string key = std::string("stage.") + stage;
    const double count = d(key + ".count");
    staged_s += d(key + ".wait_s") + d(key + ".service_s");
    if (std::strcmp(stage, "cache") == 0 || std::strcmp(stage, "lengthy") == 0) {
      continue;  // summed into the attributed time, not reported alone
    }
    m.push_back({key + ".wait_ms", 1e3 * ratio(d(key + ".wait_s"), count), "ms"});
    m.push_back({key + ".service_ms", 1e3 * ratio(d(key + ".service_s"), count), "ms"});
  }
  m.push_back({"unattributed_ms", pipeline_ms - 1e3 * ratio(staged_s, n), "ms"});

  double calls = 0;
  double handler_ns = 0;
  double statements = 0;
  for (const char* page : kPages) {
    const std::string key = std::string("handler.") + page;
    calls += d(key + ".calls");
    handler_ns += d(key + ".ns");
    statements += d(key + ".statements");
  }
  m.push_back({"handler_ms", ns_to_ms(ratio(handler_ns, calls)), "ms"});
  for (const char* page : kPages) {
    const std::string key = std::string("handler.") + page;
    m.push_back({std::string("handler_ms.") + page,
                 ns_to_ms(ratio(d(key + ".ns"), d(key + ".calls"))), "ms"});
  }
  m.push_back({"db.statements_per_req", ratio(statements, n), "stmt/req"});
  m.push_back({"db.statements_per_req.buy_confirm",
               ratio(d("handler.buy_confirm.statements"),
                     d("handler.buy_confirm.calls")),
               "stmt/req"});
  m.push_back({"response_cache.hit_ratio",
               ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")), "ratio"});
  // Zero when every request bypasses the cache (session-bearing requests).
  m.push_back({"response_cache.lookups_per_req",
               ratio(d("cache_hits") + d("cache_misses"), n), "lookup/req"});
  m.push_back({"response_cache.evictions_per_req", ratio(d("cache_evictions"), n),
               "evict/req"});
  m.push_back({"fragment_cache.hit_ratio",
               ratio(d("frag_hits"), d("frag_hits") + d("frag_misses")), "ratio"});
  m.push_back({"fragment_cache.splices_per_req", ratio(d("frag_splices"), n),
               "splice/req"});
  m.push_back({"fragment_cache.invalidations_per_req",
               ratio(d("frag_invalidations"), n), "inval/req"});
  m.push_back({"session.issued", d("session_issued"), "count"});
  m.push_back({"session.validated_per_req", ratio(d("session_validated"), n),
               "valid/req"});
  m.push_back({"allocs_per_req", ratio(d("allocs"), n), "alloc/req"});
  m.push_back({"alloc_bytes_per_req", ratio(d("alloc_bytes"), n), "B/req"});
  m.push_back({"loadgen.lag_p99_ms", lag_p99_ms(traced.fixed.samples), "ms"});
  return m;
}

// The traced run's spans, one line per request: client, pipeline and
// handler spans sharing the request id (monotonic ns; 0 = not recorded).
void write_span_table(const std::string& path, const Pass& traced,
                      const std::vector<ServerSpan>& spans) {
  std::ofstream out(path);
  out << "id\tphase\tpage\tdue\tclient_start\tclient_end\tpipeline_start\t"
         "pipeline_end\thandler_start\thandler_end\n";
  const auto rows = [&](const Phase& phase, const char* name) {
    for (const Sample& s : phase.samples) {
      const ServerSpan span = s.span < spans.size() ? spans[s.span] : ServerSpan{};
      out << s.span << '\t' << name << '\t' << s.page << '\t' << s.due << '\t'
          << s.sent << '\t'
          << s.done << '\t' << span.pipeline_start << '\t' << span.pipeline_end
          << '\t' << span.handler_start << '\t' << span.handler_end << '\n';
    }
  };
  rows(traced.fixed, "fixed");
  rows(traced.capacity, "capacity");
}

std::vector<ServerSpan> read_spans(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<ServerSpan> spans;
  ServerSpan row;
  while (in.read(reinterpret_cast<char*>(&row), sizeof row)) spans.push_back(row);
  return spans;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string bin = ".";
  std::string out = ".";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::stoull(value);
    else if (arg == "--seconds") o.seconds = std::stod(value);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--bin") o.bin = value;
    else if (arg == "--out") o.out = value;
    else throw std::runtime_error("unknown option " + arg);
  }
  if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be positive");
  return o;
}

void print_pass(const char* label, const Pass& pass) {
  std::map<std::string, std::vector<double>> by_page;
  for (const Sample& s : pass.fixed.samples) {
    by_page[s.page].push_back(ns_to_ms(double(s.done - s.due)));
  }
  std::printf("%s fixed-rate latency by page (ms):\n", label);
  for (const auto& [page, lat] : by_page) {
    std::printf("  %-24s n=%-7zu p50 %9.4f  p90 %9.4f  p99 %9.4f\n",
                page.c_str(), lat.size(), quantile(lat, 0.5),
                quantile(lat, 0.9), quantile(lat, 0.99));
  }
  const EndToEnd e = end_to_end(pass);
  std::printf(
      "%s: p50 %.4f ms, p99 %.4f ms (over %zu windows; pooled p50 %.4f ms, "
      "p99 %.4f ms over %zu samples), capacity %.1f req/s, "
      "cpu %.4f ms/req, first/last tenth p50 %.4f/%.4f ms, lag p99 %.4f ms\n",
      label, e.p50_ms, e.p99_ms, windows(pass.fixed.samples).size(),
      e.pooled_p50_ms, e.pooled_p99_ms, pass.fixed.samples.size(),
      e.capacity_rps,
      e.cpu_ms_per_req, tenth_p50_ms(pass.fixed.samples, false),
      tenth_p50_ms(pass.fixed.samples, true), lag_p99_ms(pass.fixed.samples));
}

int run(const Options& options) {
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    throw std::runtime_error("unknown workload '" + options.workload +
                             "' (expected " + workload_names() + ")");
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const Oracle oracle;
  if (!check_self_test(oracle)) return 2;

  const std::string plain = options.bin + "/perfbench_server";
  Failures failures;
  std::uint64_t attempted = 0;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  std::uint16_t port = 0;
  const int startups = options.trace ? 1 : kSetupRuns;
  for (int i = 0; i < startups; ++i) {
    if (server && !server->stop()) throw std::runtime_error("server failed to stop");
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(plain, std::vector<std::string>{});
    port = server->wait_ready();
    Connection probe(port);
    setups.push_back(double(now_ns() - t0) / 1e9);
  }

  const Pass pass = run_pass(*server, port, *workload, options.seed,
                             options.seconds, false, oracle, failures);
  attempted += pass.attempted;
  if (!server->stop()) failures.add("server did not exit cleanly");
  print_pass("untraced", pass);

  std::string invalid = validity(pass);
  std::vector<Metric> metrics;
  if (!options.trace) {
    const EndToEnd e = end_to_end(pass);
    metrics = {{"p50_ms", e.p50_ms, "ms"},
               {"p99_ms", e.p99_ms, "ms"},
               {"capacity_rps", e.capacity_rps, "req/s"},
               {"cpu_ms_per_req", e.cpu_ms_per_req, "ms"},
               {"peak_rss_mb", e.peak_rss_mb, "MB"},
               {"setup_s", median(setups), "s"}};
    std::printf("p50_ms, p99_ms: lower decile over %zu windows of the %zu "
                "fixed-rate samples; setup_s: median of %zu start-ups\n",
                windows(pass.fixed.samples).size(),
                pass.fixed.samples.size(), setups.size());
  } else {
    const std::size_t capacity =
        requests_per_pass(*workload, options.seconds) + kStreams + 1;
    ServerProcess traced_server(options.bin + "/perfbench_server_traced",
                                {"--spans", std::to_string(capacity)});
    const std::uint16_t traced_port = traced_server.wait_ready();
    const Pass traced = run_pass(traced_server, traced_port, *workload,
                                 options.seed, options.seconds, true, oracle,
                                 failures);
    attempted += traced.attempted;
    const std::string stem = options.out + "/" + std::string(workload->name) +
                             "-seed" + std::to_string(options.seed);
    if (traced_server.command("spans " + stem + ".spans.bin") != "ok") {
      throw std::runtime_error("server could not write its spans");
    }
    if (!traced_server.stop()) failures.add("traced server did not exit cleanly");
    const std::vector<ServerSpan> spans = read_spans(stem + ".spans.bin");
    std::remove((stem + ".spans.bin").c_str());
    write_span_table(stem + ".spans.tsv", traced, spans);
    print_pass("traced", traced);
    if (invalid.empty()) invalid = validity(traced);

    metrics = per_layer(traced, spans);
    const EndToEnd plain_e = end_to_end(pass);
    const EndToEnd traced_e = end_to_end(traced);
    metrics.push_back({"p50_first_tenth_ms", tenth_p50_ms(pass.fixed.samples, false), "ms"});
    metrics.push_back({"p50_last_tenth_ms", tenth_p50_ms(pass.fixed.samples, true), "ms"});
    metrics.push_back({"trace.overhead_p50_ms", traced_e.p50_ms - plain_e.p50_ms, "ms"});
    metrics.push_back({"trace.overhead_capacity_rps",
                       traced_e.capacity_rps - plain_e.capacity_rps, "req/s"});
    std::printf("spans: %s.spans.tsv\n", stem.c_str());
  }

  for (const std::string& f : failures.first) std::fprintf(stderr, "FAILED %s\n", f.c_str());
  if (!invalid.empty()) {
    std::fprintf(stderr, "run rejected: %s\n", invalid.c_str());
    return 3;
  }
  print_result(failures.count == 0, attempted, failures.count, metrics);
  return failures.count == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const perfbench::Options options = perfbench::parse_options(argc, argv);
    if (options.self_test) {
      const perfbench::Oracle oracle;
      const bool ok = perfbench::check_self_test(oracle);
      std::printf("checker self-test %s\n", ok ? "passed" : "FAILED");
      return ok ? 0 : 1;
    }
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 2;
  }
}
