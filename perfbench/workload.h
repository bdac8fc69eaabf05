// The three workloads: what each emulated visitor stream requests, and the
// fixed request counts and arrival rate of each phase. NOTES.md says why
// each workload exists and what it predicts.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/check.h"
#include "src/common/rng.h"
#include "src/tpcw/schema.h"

namespace perfbench {

enum class WorkloadKind { kBrowse, kOrder, kScan };

struct Workload {
  WorkloadKind kind;
  std::string_view name;
  // Fixed-rate phase arrivals per second over all connections: about a
  // quarter of the workload's capacity on a 4-core x86 machine. A constant,
  // never derived at run time.
  double rate_rps;
  // Requests per second of run time in each phase. Counts, not durations,
  // end every phase, so DB growth, TTL expiries and session churn are the
  // same on every run; a run of S seconds sends S times these counts.
  double warmup_per_s;
  double fixed_per_s;
  double capacity_per_s;
};

// Looks a workload up by name; nullptr if unknown.
const Workload* find_workload(std::string_view name);
std::string workload_names();

// Connections, driver threads and visitor streams: one of each per core the
// benchmark machine is expected to have.
inline constexpr std::size_t kStreams = 4;

struct Request {
  std::string target;  // path and query
  Expect expect;
  bool login = false;   // keep the session cookie this sets
  bool logout = false;  // drop the session cookie afterwards
};

// One emulated visitor stream: an endless, seed-determined sequence of
// requests, sent in order on one keep-alive connection.
class Stream {
 public:
  Stream(const Workload& workload, std::uint64_t seed, std::size_t index);

  Request next();

 private:
  void refill();

  const Workload& workload_;
  const tempest::tpcw::Scale scale_;
  tempest::Rng rng_;
  std::vector<std::int64_t> hot_customers_;  // browse only
  std::deque<Request> pending_;
};

}  // namespace perfbench
