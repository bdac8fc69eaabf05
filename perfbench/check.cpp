#include "perfbench/check.h"

#include <strings.h>

#include <charconv>
#include <cstdio>

#include "src/db/database.h"
#include "src/tpcw/handlers.h"
#include "src/tpcw/populate.h"

namespace perfbench {

namespace {

using namespace tempest;

std::string html_escape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#x27;"; break;
      default: out += c;
    }
  }
  return out;
}

// The text that identifies each route's page (its <title>, or a fixed line
// where the title is data).
std::string_view page_marker(std::string_view path) {
  if (path == "/home") return "<title>TPC-W Home</title>";
  if (path == "/new_products") return "<title>New Products: ";
  if (path == "/best_sellers") return "<title>Best Sellers: ";
  if (path == "/product_detail") return "<input type=\"submit\" value=\"Add to cart\">";
  if (path == "/search_request") return "<title>Search</title>";
  if (path == "/execute_search") return "<title>Search results</title>";
  if (path == "/shopping_cart") return "<title>Shopping Cart</title>";
  if (path == "/customer_registration") return "<title>Customer Registration</title>";
  if (path == "/buy_request") return "<title>Checkout</title>";
  if (path == "/buy_confirm") return "<title>Order Confirmed</title>";
  if (path == "/order_inquiry") return "<title>Order Inquiry</title>";
  if (path == "/order_display") return "<title>Order Status</title>";
  if (path == "/admin_request") return "<title>Admin: Edit Item</title>";
  if (path == "/admin_response") return "<title>Admin: Item Updated</title>";
  if (path == "/login") return "You are signed in as customer #";
  if (path == "/logout") return "You have been signed out.";
  return {};
}

// The customer-specific text a page must contain, beyond the c_id every
// customer page carries in its navigation links.
std::string customer_line(const Oracle& oracle, std::string_view path,
                          std::int64_t c_id) {
  const std::string& name = oracle.customer_name(c_id);
  const std::string id = std::to_string(c_id);
  if (path == "/home") return "Welcome back, " + name + "!";
  if (path == "/login") return "Welcome back, " + name + "!";
  if (path == "/customer_registration") {
    return "Welcome back " + name + " (user" + id + ")";
  }
  if (path == "/buy_request") return "Shipping to: " + name + ",";
  if (path == "/buy_confirm") return "placed for " + name + ".";
  if (path == "/order_inquiry") return "orders for user" + id + ":";
  return {};
}

struct Head {
  int status = 0;
  std::size_t head_bytes = 0;  // through the blank line
  std::optional<std::size_t> content_length;
};

std::optional<Head> parse_head(std::string_view raw) {
  const std::size_t end = raw.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  Head head;
  head.head_bytes = end + 4;
  if (raw.size() < 12 || raw.substr(0, 5) != "HTTP/") return head;
  const std::size_t sp = raw.find(' ');
  std::from_chars(raw.data() + sp + 1, raw.data() + raw.size(), head.status);
  std::size_t line = raw.find("\r\n") + 2;
  while (line < end) {
    const std::size_t next = raw.find("\r\n", line);
    const std::string_view field = raw.substr(line, next - line);
    constexpr std::string_view kName = "content-length:";
    if (field.size() > kName.size() &&
        ::strncasecmp(field.data(), kName.data(), kName.size()) == 0) {
      std::size_t pos = kName.size();
      while (pos < field.size() && field[pos] == ' ') ++pos;
      std::size_t length = 0;
      const auto [ptr, ec] = std::from_chars(
          field.data() + pos, field.data() + field.size(), length);
      if (ec == std::errc() && ptr == field.data() + field.size()) {
        head.content_length = length;
      }
    }
    line = next + 2;
  }
  return head;
}

bool contains(std::string_view body, std::string_view text) {
  return body.find(text) != std::string_view::npos;
}

}  // namespace

Oracle::Oracle() {
  // Same population the server builds (same scale, same default seed).
  db::Database db;
  const tpcw::Scale scale = tpcw::Scale::bench();
  tpcw::populate_tpcw(db, scale);
  const db::Table& customer = db.table("customer");
  const std::size_t fname = customer.schema().require_column("c_fname");
  const std::size_t lname = customer.schema().require_column("c_lname");
  names_.resize(static_cast<std::size_t>(scale.customers) + 1);
  for (std::int64_t id = 1; id <= scale.customers; ++id) {
    const std::size_t pos = customer.find_by_pk(db::Value(id));
    if (pos == SIZE_MAX) continue;
    const db::Row& row = customer.row_at(pos);
    names_[static_cast<std::size_t>(id)] =
        html_escape(row[fname].as_string() + " " + row[lname].as_string());
  }
  tpcw::register_tpcw_static(statics_);
}

const std::string& Oracle::customer_name(std::int64_t c_id) const {
  static const std::string kNone;
  if (c_id <= 0 || static_cast<std::size_t>(c_id) >= names_.size()) return kNone;
  return names_[static_cast<std::size_t>(c_id)];
}

std::optional<std::size_t> frame_length(std::string_view buffered) {
  const std::optional<Head> head = parse_head(buffered);
  if (!head) return std::nullopt;
  if (!head->content_length) return 0;
  return head->head_bytes + *head->content_length;
}

std::optional<std::string> session_cookie(std::string_view response) {
  constexpr std::string_view kField = "\r\nSet-Cookie: tempest_sid=";
  const std::size_t head_end = response.find("\r\n\r\n");
  const std::size_t at = response.find(kField);
  if (at == std::string_view::npos || at > head_end) return std::nullopt;
  const std::size_t from = at + kField.size();
  const std::size_t to = response.find_first_of(";\r", from);
  return std::string(response.substr(from, to - from));
}

std::string check_response(const Oracle& oracle, const Expect& expect,
                           std::string_view response) {
  const std::optional<Head> head = parse_head(response);
  if (!head) return "incomplete response head";
  if (head->status != 200) return "status " + std::to_string(head->status);
  if (!head->content_length) return "no Content-Length";
  const std::string_view body = response.substr(head->head_bytes);
  if (body.size() != *head->content_length) {
    return "body is " + std::to_string(body.size()) +
           " bytes, Content-Length says " +
           std::to_string(*head->content_length);
  }

  if (expect.is_static) {
    const server::StaticStore::Entry* entry = oracle.statics().find(expect.path);
    if (entry == nullptr) return "no such static object " + expect.path;
    if (body != *entry->content) {
      return "static body of " + std::to_string(body.size()) +
             " bytes differs from the " +
             std::to_string(entry->content->size()) + " stored";
    }
    return {};
  }

  const std::string_view marker = page_marker(expect.path);
  if (marker.empty()) return "no marker known for " + expect.path;
  if (!contains(body, marker)) return "page marker missing";
  const std::size_t close = body.rfind("</html>");
  if (close == std::string_view::npos ||
      body.find_first_not_of(" \r\n\t", close + 7) != std::string_view::npos) {
    return "page does not end with </html>";
  }
  if (expect.customer > 0) {
    const std::string nav =
        "href=\"/shopping_cart?c_id=" + std::to_string(expect.customer) + "\"";
    if (!contains(body, nav)) {
      return "page not rendered for customer " +
             std::to_string(expect.customer);
    }
    const std::string line = customer_line(oracle, expect.path, expect.customer);
    if (!line.empty() && !contains(body, line)) {
      return "page does not name customer " + std::to_string(expect.customer);
    }
  }
  if (expect.path == "/login" && !session_cookie(response)) {
    return "login set no session cookie";
  }
  return {};
}

bool check_self_test(const Oracle& oracle) {
  const auto frame = [](int status, std::string_view reason,
                        const std::string& body, std::size_t claimed) {
    return "HTTP/1.1 " + std::to_string(status) + " " + std::string(reason) +
           "\r\nContent-Type: text/html\r\nContent-Length: " +
           std::to_string(claimed) + "\r\n\r\n" + body;
  };
  const auto home_page = [&](std::int64_t c_id) {
    return "<html>\n<head>\n  <title>TPC-W Home</title>\n</head>\n<body>\n"
           "<a href=\"/shopping_cart?c_id=" + std::to_string(c_id) +
           "\">cart</a>\n<h2 align=\"center\">Welcome back, " +
           oracle.customer_name(c_id) + "!</h2>\n</body>\n</html>\n";
  };
  const std::string good = home_page(5);
  const std::string other = home_page(6);
  const std::string& image = *oracle.statics().find("/img/logo.gif")->content;

  struct Case {
    const char* name;
    Expect expect;
    std::string response;
    bool correct;
  };
  const Case cases[] = {
      {"right customer's page", {"/home", false, 5},
       frame(200, "OK", good, good.size()), true},
      {"another customer's page", {"/home", false, 5},
       frame(200, "OK", other, other.size()), false},
      {"truncated body", {"/home", false, 5},
       frame(200, "OK", good.substr(0, good.size() - 20), good.size()), false},
      {"503", {"/home", false, 5},
       frame(503, "Service Unavailable", good, good.size()), false},
      {"page without </html>", {"/home", false, 5},
       frame(200, "OK", good.substr(0, good.size() - 8),
             good.size() - 8), false},
      {"whole static object", {"/img/logo.gif", true, 0},
       frame(200, "OK", image, image.size()), true},
      {"short static object", {"/img/logo.gif", true, 0},
       frame(200, "OK", image.substr(1), image.size() - 1), false},
  };
  bool ok = true;
  for (const Case& c : cases) {
    const std::string error = check_response(oracle, c.expect, c.response);
    if (error.empty() != c.correct) {
      std::fprintf(stderr, "checker self-test: %s judged %s (%s)\n", c.name,
                   error.empty() ? "correct" : "wrong", error.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace perfbench
