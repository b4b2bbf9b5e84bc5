// Minimal JSON emission helpers shared by the observability exporters
// (metrics snapshots, trace files, BENCH_*.json tables).
//
// Emission only -- the repo never needs to parse JSON, so there is no
// parser.  All formatting is deterministic: given the same values the
// same bytes come out, which is what lets trace files double as a
// determinism-regression oracle.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace legion::obs {

// Escapes `s` for inclusion inside a JSON string literal (no quotes
// added).
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Quoted JSON string.
inline std::string JsonString(std::string_view s) {
  // Appended rather than built with operator+, which GCC 12 flags with a
  // false -Wrestrict once inlined.
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

// Deterministic number formatting.  Integral values of doubles print
// without an exponent or trailing zeros ("5" not "5.000000"), everything
// else round-trips through %.17g.  Non-finite values (not representable
// in JSON) print as null.
inline std::string JsonNumber(double v) {
  if (v != v || v > 1.7e308 || v < -1.7e308) return "null";
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 &&
      v > -1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonNumber(std::uint64_t v) { return std::to_string(v); }
inline std::string JsonNumber(std::int64_t v) { return std::to_string(v); }

}  // namespace legion::obs
