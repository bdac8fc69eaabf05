// The measured server process: a Scale::bench TPC-W population behind one
// StagedServer and one TcpListener on 127.0.0.1, driven by perfbench_load
// over stdin/stdout (see protocol.h).
//
// The configuration is built here, in full, and reads no environment
// variable, so every run measures the same server whatever the shell sets.
//
// Built twice. perfbench_server is the plain server the end-to-end numbers
// come from. perfbench_server_traced (PERFBENCH_TRACED) adds, from outside
// the library: a WebServer decorator that stamps each request's pipeline
// span (submit -> ResponseWriter::send), a wrapper around every route
// handler that stamps the handler span and counts DB statements per page,
// and the operator-new counter in alloc_count.cpp.
//
//   perfbench_server [--spans N]     (N = request ids the traced build keeps)
#include <sys/prctl.h>
#include <sys/resource.h>

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "perfbench/protocol.h"
#include "src/common/clock.h"
#include "src/db/database.h"
#include "src/server/staged_server.h"
#include "src/server/tcp.h"
#include "src/tpcw/handlers.h"
#include "src/tpcw/populate.h"
#include "src/tpcw/templates.h"

namespace perfbench {

#ifdef PERFBENCH_TRACED
struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocTotals alloc_totals();  // alloc_count.cpp
#endif

namespace {

using namespace tempest;

server::ServerConfig bench_config() {
  server::ServerConfig config;  // default pool sizes
  // Stated outright: these are what the CI env hooks of the other benches
  // would change.
  config.controller = server::ControllerMode::kPaper;
  config.transport.reactor_shards = 1;
  config.db_locking = db::LockingMode::kMyisam;
  config.fault_plan = nullptr;
  // Wall-time pipeline: no simulated service costs, no simulated DB time.
  config.charge_service_costs = false;
  config.db_latency = db::LatencyModel{0, 0, 0, 0, 0, 0, 0};
  config.cache.enabled = true;
  config.fragment_cache.enabled = true;
  config.sessions.enabled = true;
  return config;
}

// Flat {"key":number,...} line for the driver.
class FlatJson {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + key + "\":" + buf;
  }
  std::string finish() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

#ifdef PERFBENCH_TRACED

std::uint64_t parse_id(std::string_view digits) {
  std::uint64_t id = 0;
  std::from_chars(digits.data(), digits.data() + digits.size(), id);
  return id;
}

// Span id from the raw request bytes (the reactor has not parsed them yet).
std::uint64_t raw_span_id(const std::string& raw) {
  static const std::string needle = "\r\n" + std::string(kSpanHeader) + ": ";
  const std::size_t at = raw.find(needle);
  if (at == std::string::npos) return 0;
  const std::size_t from = at + needle.size();
  return parse_id(std::string_view(raw).substr(from, raw.find('\r', from) - from));
}

// Forwards to the transport's writer after stamping the pipeline end. One
// per request id, owned by the span table, so arming it allocates nothing.
class TimedWriter final : public server::ResponseWriter {
 public:
  void arm(std::shared_ptr<server::ResponseWriter> inner,
           std::atomic<std::int64_t>* end) {
    inner_ = std::move(inner);
    end_ = end;
  }
  void send(server::OutboundPayload payload) override {
    end_->store(now_ns(), std::memory_order_release);
    std::shared_ptr<server::ResponseWriter> inner = std::move(inner_);
    inner->send(std::move(payload));
  }

 private:
  std::shared_ptr<server::ResponseWriter> inner_;
  std::atomic<std::int64_t>* end_ = nullptr;
};

struct SpanSlot {
  std::atomic<std::int64_t> pipeline_start{0};
  std::atomic<std::int64_t> pipeline_end{0};
  std::atomic<std::int64_t> handler_start{0};
  std::atomic<std::int64_t> handler_end{0};
  TimedWriter writer;
};

class SpanTable {
 public:
  explicit SpanTable(std::size_t capacity)
      : capacity_(capacity), slots_(new SpanSlot[capacity]) {}

  SpanSlot* at(std::uint64_t id) {
    if (id == 0 || id >= capacity_) return nullptr;
    std::uint64_t seen = max_id_.load(std::memory_order_relaxed);
    while (id > seen &&
           !max_id_.compare_exchange_weak(seen, id, std::memory_order_relaxed)) {
    }
    return &slots_[id];
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::uint64_t rows = max_id_.load(std::memory_order_relaxed) + 1;
    bool ok = true;
    for (std::uint64_t id = 0; id < rows && ok; ++id) {
      const SpanSlot& s = slots_[id];
      const ServerSpan row{s.pipeline_start.load(std::memory_order_acquire),
                           s.pipeline_end.load(std::memory_order_acquire),
                           s.handler_start.load(std::memory_order_acquire),
                           s.handler_end.load(std::memory_order_acquire)};
      ok = std::fwrite(&row, sizeof row, 1, f) == 1;
    }
    return std::fclose(f) == 0 && ok;
  }

 private:
  const std::size_t capacity_;
  std::unique_ptr<SpanSlot[]> slots_;
  std::atomic<std::uint64_t> max_id_{0};
};

// Times submit -> ResponseWriter::send for every request carrying a span id.
class TimedServer final : public server::WebServer {
 public:
  TimedServer(server::WebServer& inner, SpanTable& spans)
      : inner_(inner), spans_(spans) {}

  void submit(server::IncomingRequest request) override {
    if (SpanSlot* slot = spans_.at(raw_span_id(request.raw))) {
      slot->pipeline_start.store(now_ns(), std::memory_order_release);
      slot->writer.arm(std::move(request.writer), &slot->pipeline_end);
      // Aliasing constructor with no owner: the table owns the writer.
      request.writer = std::shared_ptr<server::ResponseWriter>(
          std::shared_ptr<void>(), &slot->writer);
    }
    inner_.submit(std::move(request));
  }
  void shutdown() override { inner_.shutdown(); }

 private:
  server::WebServer& inner_;
  SpanTable& spans_;
};

struct PageCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> statements{0};
};

// Wraps one route handler: handler span, time and DB statements per page.
server::Handler wrap_handler(server::Handler inner, PageCounters& page,
                             SpanTable& spans) {
  return [inner = std::move(inner), &page, &spans](server::HandlerContext& ctx) {
    const std::uint64_t stmts0 =
        ctx.db != nullptr ? ctx.db->statements_executed() : 0;
    const std::int64_t t0 = now_ns();
    server::HandlerResult result = inner(ctx);
    const std::int64_t t1 = now_ns();
    const std::uint64_t stmts1 =
        ctx.db != nullptr ? ctx.db->statements_executed() : 0;
    page.calls.fetch_add(1, std::memory_order_relaxed);
    page.ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                      std::memory_order_relaxed);
    page.statements.fetch_add(stmts1 - stmts0, std::memory_order_relaxed);
    if (auto id = ctx.request.headers.get(kSpanHeader)) {
      if (SpanSlot* slot = spans.at(parse_id(*id))) {
        slot->handler_start.store(t0, std::memory_order_release);
        slot->handler_end.store(t1, std::memory_order_release);
      }
    }
    return result;
  };
}

// The TPC-W application with every route handler wrapped; same routes,
// cache policies, static content and templates as make_tpcw_application.
std::shared_ptr<const server::Application> traced_application(
    std::shared_ptr<tpcw::TpcwState> state, SpanTable& spans,
    std::map<std::string, PageCounters>& pages) {
  server::Router plain;
  tpcw::register_tpcw_routes(plain, std::move(state));
  auto app = std::make_shared<server::Application>();
  for (const std::string& path : plain.paths()) {
    server::Handler wrapped =
        wrap_handler(*plain.find(path), pages[path.substr(1)], spans);
    if (const server::CachePolicy* policy = plain.cache_policy(path)) {
      app->router.add(path, std::move(wrapped), *policy);
    } else {
      app->router.add(path, std::move(wrapped));
    }
  }
  tpcw::register_tpcw_static(app->static_store);
  app->templates = tpcw::make_template_loader();
  return app;
}

#endif  // PERFBENCH_TRACED

struct StageSums {
  double count = 0;
  double wait_s = 0;
  double service_s = 0;
};

void add_server_counters(FlatJson& json, server::StagedServer& web) {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const double cpu_ms =
      (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  json.add("cpu_ms", cpu_ms);
  json.add("maxrss_kb", static_cast<double>(ru.ru_maxrss));

  server::ServerStats& stats = web.stats();
  json.add("completed", static_cast<double>(stats.completed_total()));
  const auto tcp = stats.transport().snapshot();
  json.add("tcp_accepted", static_cast<double>(tcp.accepted));
  json.add("tcp_requests", static_cast<double>(tcp.requests));
  const auto cache = stats.cache().snapshot();
  json.add("cache_hits", static_cast<double>(cache.hits_total()));
  json.add("cache_misses", static_cast<double>(cache.misses));
  json.add("cache_inserts", static_cast<double>(cache.inserts));
  json.add("cache_evictions", static_cast<double>(cache.evictions));
  const auto frag = stats.fragments().snapshot();
  json.add("frag_hits", static_cast<double>(frag.hits_total()));
  json.add("frag_misses", static_cast<double>(frag.misses));
  json.add("frag_splices", static_cast<double>(frag.splices));
  json.add("frag_invalidations", static_cast<double>(frag.invalidations));
  const auto sessions = stats.sessions().snapshot();
  json.add("session_issued", static_cast<double>(sessions.issued));
  json.add("session_validated", static_cast<double>(sessions.validated));

  // Stage cells are per (stage, class); sum the classes. Means times counts
  // give exact sums, so phase deltas can be formed by the driver.
  std::map<std::string, StageSums> stages;
  for (const auto& row : stats.stage_breakdown()) {
    StageSums& s = stages[server::to_string(row.stage)];
    s.count += static_cast<double>(row.service.count);
    s.wait_s += static_cast<double>(row.queue_wait.count) * row.queue_wait.mean;
    s.service_s += static_cast<double>(row.service.count) * row.service.mean;
  }
  for (const auto& [name, s] : stages) {
    json.add("stage." + name + ".count", s.count);
    json.add("stage." + name + ".wait_s", s.wait_s);
    json.add("stage." + name + ".service_s", s.service_s);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace tempest;
  using namespace perfbench;

  // Die with the driver, whatever way it goes.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::size_t span_capacity = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--spans") == 0) {
      span_capacity = std::strtoull(argv[i + 1], nullptr, 10) + 1;
    }
  }

  TimeScale::set(1.0);
  db::Database db;
  const tpcw::Scale scale = tpcw::Scale::bench();
  const tpcw::PopulationSummary population = tpcw::populate_tpcw(db, scale);
  auto state = tpcw::TpcwState::from_population(scale, population);
  const server::ServerConfig config = bench_config();

#ifdef PERFBENCH_TRACED
  SpanTable spans(span_capacity);
  std::map<std::string, PageCounters> pages;
  auto app = traced_application(std::move(state), spans, pages);
  server::StagedServer web(config, app, db);
  TimedServer front(web, spans);
#else
  (void)span_capacity;
  auto app = tpcw::make_tpcw_application(std::move(state));
  server::StagedServer web(config, app, db);
  server::WebServer& front = web;
#endif
  server::TcpListener listener(front, 0, config.transport, &web.stats());
  std::printf("READY %u\n", static_cast<unsigned>(listener.port()));
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "snap") {
      FlatJson json;
      add_server_counters(json, web);
#ifdef PERFBENCH_TRACED
      const AllocTotals allocs = alloc_totals();
      json.add("allocs", static_cast<double>(allocs.count));
      json.add("alloc_bytes", static_cast<double>(allocs.bytes));
      for (const auto& [name, page] : pages) {
        json.add("handler." + name + ".calls",
                 static_cast<double>(page.calls.load()));
        json.add("handler." + name + ".ns", static_cast<double>(page.ns.load()));
        json.add("handler." + name + ".statements",
                 static_cast<double>(page.statements.load()));
      }
#endif
      std::printf("%s\n", json.finish().c_str());
    } else if (line.rfind("spans ", 0) == 0) {
#ifdef PERFBENCH_TRACED
      std::printf("%s\n", spans.write(line.substr(6)) ? "ok" : "error");
#else
      std::printf("error\n");
#endif
    } else if (line == "quit") {
      break;
    } else {
      std::printf("error\n");
    }
    std::fflush(stdout);
  }
  listener.stop();
  web.shutdown();
  return 0;
}
