// What the load driver and the server process agree on: the span header,
// the clock, the control commands, and the span file layout.
//
// The driver talks to the server over the server's stdin/stdout, one line
// per command:
//   snap            -> one line of flat JSON: {"key":number,...}
//   spans <path>    -> writes the span table to <path>, answers "ok"
//   quit            -> stops the listener and the server, then exits
// End of input on stdin also stops the server, so a dead driver never
// leaves a server behind.
#pragma once

#include <time.h>

#include <cstdint>
#include <string_view>

namespace perfbench {

// Request header carrying the traced run's request id. Never the URL: a
// query parameter would change the response-cache key of every route that
// varies on all parameters.
inline constexpr std::string_view kSpanHeader = "X-Span";

// CLOCK_MONOTONIC nanoseconds — the same clock in both processes, so client
// and server spans of one request can be compared directly.
inline std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// One row of the span file, indexed by request id. Zero = not recorded.
struct ServerSpan {
  std::int64_t pipeline_start = 0;  // WebServer::submit entered
  std::int64_t pipeline_end = 0;    // ResponseWriter::send entered
  std::int64_t handler_start = 0;   // route handler entered
  std::int64_t handler_end = 0;     // route handler returned
};

}  // namespace perfbench
