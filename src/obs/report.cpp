#include "obs/report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>

namespace burst::obs {

double host_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string quoted(const std::string& s) {
  // Built up with += rather than `"\"" + json_escape(s) + "\""`: the
  // operator+ form trips a -Wrestrict false positive in GCC 12 at -O3
  // (GCC bug 105651), and the tree builds with -Werror.
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  // %.17g round-trips every double; trim to %g-style readability where exact.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void RunReport::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, quoted(value));
}

void RunReport::config(const std::string& key, const char* value) {
  config(key, std::string(value));
}

void RunReport::config(const std::string& key, double value) {
  config_.emplace_back(key, json_number(value));
}

void RunReport::config(const std::string& key, std::int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunReport::config(const std::string& key, int value) {
  config(key, static_cast<std::int64_t>(value));
}

void RunReport::config(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void RunReport::measurement(const std::string& name, double measured,
                            double paper_value, const std::string& unit) {
  measurements_.push_back({name, measured, paper_value, unit});
}

void RunReport::attach_registry(const Registry& reg) {
  counters_ = reg.counters();
  gauges_ = reg.gauges();
  histograms_ = reg.histograms();
}

void RunReport::check(bool ok, const std::string& what) {
  checks_.push_back({ok, what});
  self_check_ = self_check_ && ok;
}

void RunReport::add_error(const std::string& code, const std::string& message) {
  errors_.push_back({code, message});
  self_check_ = false;
}

void RunReport::add_error(const std::exception& e) {
  add_error(error_code_of(e), e.what());
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": " << quoted(kSchema) << ",\n";
  os << "  \"version\": " << kVersion << ",\n";
  os << "  \"kind\": " << quoted(kind_) << ",\n";
  os << "  \"name\": " << quoted(name_) << ",\n";

  os << "  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    " << quoted(config_[i].first) << ": "
       << config_[i].second;
  }
  os << (config_.empty() ? "" : "\n  ") << "},\n";

  os << "  \"measurements\": [";
  for (std::size_t i = 0; i < measurements_.size(); ++i) {
    const auto& m = measurements_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << quoted(m.name)
       << ", \"measured\": " << json_number(m.measured)
       << ", \"paper_value\": " << json_number(m.paper_value)
       << ", \"unit\": " << quoted(m.unit) << "}";
  }
  os << (measurements_.empty() ? "" : "\n  ") << "],\n";

  os << "  \"metrics\": {\n";
  os << "    \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "      " << quoted(counters_[i].first)
       << ": " << counters_[i].second;
  }
  os << (counters_.empty() ? "" : "\n    ") << "},\n";
  os << "    \"gauges\": {";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "      " << quoted(gauges_[i].first)
       << ": " << json_number(gauges_[i].second);
  }
  os << (gauges_.empty() ? "" : "\n    ") << "},\n";
  os << "    \"histograms\": {";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const auto& [name, h] = histograms_[i];
    os << (i == 0 ? "\n" : ",\n") << "      " << quoted(name)
       << ": {\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
       << ", \"min\": " << json_number(h.min)
       << ", \"max\": " << json_number(h.max)
       << ", \"p50\": " << json_number(h.p50)
       << ", \"p99\": " << json_number(h.p99) << "}";
  }
  os << (histograms_.empty() ? "" : "\n    ") << "}\n";
  os << "  },\n";

  os << "  \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"ok\": "
       << (checks_[i].ok ? "true" : "false")
       << ", \"what\": " << quoted(checks_[i].what) << "}";
  }
  os << (checks_.empty() ? "" : "\n  ") << "],\n";

  os << "  \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"code\": " << quoted(errors_[i].code)
       << ", \"message\": " << quoted(errors_[i].message) << "}";
  }
  os << (errors_.empty() ? "" : "\n  ") << "],\n";

  os << "  \"self_check\": " << (self_check_ ? "true" : "false") << "\n";
  os << "}\n";
}

std::string RunReport::to_json() const {
  std::ostringstream ss;
  write_json(ss);
  return ss.str();
}

}  // namespace burst::obs
