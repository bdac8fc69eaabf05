// Response correctness for the benchmark: every response the driver reads
// is checked against an oracle built independently of the server (its own
// Scale::bench population and its own StaticStore), and any mismatch counts
// as a failed request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/static_store.h"

namespace perfbench {

// What one request should get back.
struct Expect {
  // Route path ("/home") or static path ("/img/logo.gif").
  std::string path;
  bool is_static = false;
  // The customer the page is for: the session's customer on logged-in
  // requests, the c_id parameter on anonymous ones; 0 = none.
  std::int64_t customer = 0;
};

// Expected customer names and static bodies, from the same deterministic
// population and image set the server builds.
class Oracle {
 public:
  Oracle();

  // "First Last" as the templates render it (HTML-escaped); empty when the
  // id is out of range.
  const std::string& customer_name(std::int64_t c_id) const;
  const tempest::server::StaticStore& statics() const { return statics_; }

 private:
  std::vector<std::string> names_;  // index = c_id
  tempest::server::StaticStore statics_;
};

// Total size of the first response in `buffered` (head plus Content-Length
// body) once its head is complete; nullopt while the head is incomplete, 0
// when the head is complete but carries no Content-Length.
std::optional<std::size_t> frame_length(std::string_view buffered);

// The session token a response sets, if any.
std::optional<std::string> session_cookie(std::string_view response);

// Checks one complete response. Returns an empty string when it is correct,
// otherwise what is wrong. Checks the status, the Content-Length framing, a
// page-specific marker and the closing </html> of pages, the customer a page
// was rendered for, and static bodies byte for byte.
std::string check_response(const Oracle& oracle, const Expect& expect,
                           std::string_view response);

// Feeds the checker known-good and known-bad responses (a wrong-customer
// page, a truncated body, a 503, a wrong static body) and reports whether
// each was judged correctly. Prints what went wrong to stderr.
bool check_self_test(const Oracle& oracle);

}  // namespace perfbench
