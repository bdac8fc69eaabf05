#include "perfbench/workload.h"

#include <algorithm>

#include "src/tpcw/mix.h"

namespace perfbench {

namespace {

using namespace tempest;

// Rates and counts measured on a 4-core x86 container (see NOTES.md).
constexpr Workload kWorkloads[] = {
    {WorkloadKind::kBrowse, "browse", 9000, 2000, 4950, 5000},
    {WorkloadKind::kOrder, "order", 3000, 600, 1650, 2000},
    {WorkloadKind::kScan, "scan", 2100, 400, 1155, 1500},
};

// Returning customers of the browse workload.
constexpr std::size_t kHotCustomers = 16;
// Interactions between /login and /logout in one order session.
constexpr std::int64_t kMinSessionPages = 5;
constexpr std::int64_t kMaxSessionPages = 15;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Customer-specific pages name the customer; the admin pages do not.
std::int64_t page_customer(const std::string& path, std::int64_t c_id) {
  return path.rfind("/admin_", 0) == 0 ? 0 : c_id;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += "|";
    out += w.name;
  }
  return out;
}

Stream::Stream(const Workload& workload, std::uint64_t seed, std::size_t index)
    : workload_(workload),
      scale_(tpcw::Scale::bench()),
      rng_(splitmix(seed ^ splitmix(index + 1))) {
  if (workload_.kind == WorkloadKind::kBrowse) {
    // The same hot set on every stream of a run.
    Rng pick(splitmix(seed));
    while (hot_customers_.size() < kHotCustomers) {
      const std::int64_t c_id = pick.uniform_int(1, scale_.customers);
      if (std::find(hot_customers_.begin(), hot_customers_.end(), c_id) ==
          hot_customers_.end()) {
        hot_customers_.push_back(c_id);
      }
    }
  }
}

Request Stream::next() {
  if (pending_.empty()) refill();
  Request request = std::move(pending_.front());
  pending_.pop_front();
  return request;
}

void Stream::refill() {
  const auto page = [&](const std::vector<tpcw::MixEntry>& mix,
                        std::int64_t c_id) {
    const std::string& path = tpcw::sample_page(rng_, mix);
    Request request;
    request.target = tpcw::build_url(path, rng_, scale_, c_id);
    request.expect = {path, false, page_customer(path, c_id)};
    return request;
  };

  switch (workload_.kind) {
    case WorkloadKind::kBrowse: {
      // An anonymous returning customer's page, then its images.
      const std::int64_t c_id = hot_customers_[static_cast<std::size_t>(
          rng_.uniform_int(0, kHotCustomers - 1))];
      Request request = page(tpcw::browsing_mix(), c_id);
      const std::string path = request.expect.path;
      pending_.push_back(std::move(request));
      for (std::string& image : tpcw::embedded_images(path, rng_)) {
        Request get;
        get.expect = {image, true, 0};
        get.target = std::move(image);
        pending_.push_back(std::move(get));
      }
      break;
    }
    case WorkloadKind::kScan:
      // Any customer, any page: URL-keyed cache entries rarely repeat.
      pending_.push_back(page(tpcw::browsing_mix(),
                              rng_.uniform_int(1, scale_.customers)));
      break;
    case WorkloadKind::kOrder: {
      // One session: /login, a bounded run of ordering-mix pages, /logout.
      const std::int64_t c_id = rng_.uniform_int(1, scale_.customers);
      Request login;
      login.target = tpcw::build_login_url(c_id);
      login.expect = {"/login", false, c_id};
      login.login = true;
      pending_.push_back(std::move(login));
      const std::int64_t pages =
          rng_.uniform_int(kMinSessionPages, kMaxSessionPages);
      for (std::int64_t k = 0; k < pages; ++k) {
        pending_.push_back(page(tpcw::ordering_mix(), c_id));
      }
      Request logout;
      logout.target = "/logout";
      logout.expect = {"/logout", false, 0};
      logout.logout = true;
      pending_.push_back(std::move(logout));
      break;
    }
  }
}

}  // namespace perfbench
