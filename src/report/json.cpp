// paxsim/report/json.cpp
#include "report/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "report/parse.hpp"

namespace paxsim::report {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

Json& Json::begin_document(std::string_view kind) {
  assert(stack_.empty() && "begin_document must be the first call");
  object();
  field("schema_version", kSchemaVersion);
  field("kind", kind);
  return *this;
}

void Json::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the comma and the colon follows it
  }
  if (!stack_.empty()) {
    assert(stack_.back().kind == '[' && "object members need a key first");
    if (!stack_.back().first) os_ << ',';
    stack_.back().first = false;
  }
}

Json& Json::object() {
  separate();
  os_ << '{';
  stack_.push_back(Scope{'{', true});
  return *this;
}

Json& Json::array() {
  separate();
  os_ << '[';
  stack_.push_back(Scope{'[', true});
  return *this;
}

Json& Json::end() {
  assert(!stack_.empty() && "end() without an open scope");
  assert(!pending_key_ && "dangling key");
  os_ << (stack_.back().kind == '{' ? '}' : ']');
  stack_.pop_back();
  return *this;
}

Json& Json::key(std::string_view k) {
  assert(!stack_.empty() && stack_.back().kind == '{' &&
         "key() outside an object");
  assert(!pending_key_ && "two keys in a row");
  if (!stack_.back().first) os_ << ',';
  stack_.back().first = false;
  write_json_string(os_, k);
  os_ << ':';
  pending_key_ = true;
  return *this;
}

Json& Json::value(std::string_view v) {
  separate();
  write_json_string(os_, v);
  return *this;
}

Json& Json::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
  return *this;
}

Json& Json::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  // Shortest representation that still distinguishes report-scale values;
  // %g keeps integers integral ("12" not "12.000000").
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  os_ << buf;
  return *this;
}

Json& Json::value(std::uint64_t v) {
  separate();
  os_ << v;
  return *this;
}

Json& Json::value(std::int64_t v) {
  separate();
  os_ << v;
  return *this;
}

void Json::finish() {
  assert(!pending_key_ && "dangling key at finish()");
  while (!stack_.empty()) end();
  os_ << '\n';
}

bool validate_json(std::string_view text, std::string* error) {
  JsonValue discarded;
  return parse_json_value(text, &discarded, error);
}

}  // namespace paxsim::report
