#include "api/parser.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "obs/report.hpp"

namespace burst::api {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kBatch:
      return "batch";
    case Priority::kStandard:
      return "standard";
    case Priority::kInteractive:
      return "interactive";
  }
  return "?";
}

bool priority_from_name(const std::string& name, Priority* out) {
  if (name == "batch") {
    *out = Priority::kBatch;
  } else if (name == "standard") {
    *out = Priority::kStandard;
  } else if (name == "interactive") {
    *out = Priority::kInteractive;
  } else {
    return false;
  }
  return true;
}

namespace {

// Hand-rolled scanner for the strict JSON subset the API accepts: one
// object of string keys mapping to strings, numbers, or arrays of numbers.
// Tracks position for error messages; never throws.
class Scanner {
 public:
  explicit Scanner(const std::string& s) : s_(s) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= s_.size();
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  std::size_t pos() const { return pos_; }

  /// JSON string with the common escapes; no \uXXXX (token-id payloads
  /// never need it, and rejecting it keeps the parser honest about scope).
  /// Fails without growing `out` past `cap` characters; overlong() then
  /// tells a too-long string from a malformed one.
  bool string(std::string* out, std::size_t cap) {
    overlong_ = false;
    if (!consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        constexpr std::string_view kFrom = "\"\\/ntr", kTo = "\"\\/\n\t\r";
        const std::size_t e =
            pos_ < s_.size() ? kFrom.find(s_[pos_++]) : kFrom.npos;
        if (e == kFrom.npos) {
          return false;
        }
        c = kTo[e];
      }
      if (out->size() == cap) {
        overlong_ = true;
        return false;
      }
      out->push_back(c);
    }
    return false;  // unterminated
  }

  bool overlong() const { return overlong_; }

  bool number(double* out) {
    skip_ws();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin || !std::isfinite(v)) {
      return false;
    }
    pos_ += static_cast<std::size_t>(end - begin);
    *out = v;
    return true;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  bool overlong_ = false;
};

/// Longest tenant name, and the max_tokens / prompt-length bound.
constexpr std::size_t kMaxTenantChars = 64;
constexpr std::int64_t kMaxTokens = std::int64_t{1} << 20;
/// Hostile strings are echoed in error messages at most this long.
constexpr std::size_t kEchoChars = 32;

/// `s` quoted for an error message; `cut` marks a prefix of a longer string.
std::string quoted(const std::string& s, bool cut) {
  return "\"" + s + (cut ? "...\"" : "\"");
}

bool fail(ApiError* err, const std::string& message) {
  err->status = 400;
  err->code = burst::ErrorCode::kInvalidRequest;
  err->message = message;
  return false;
}

bool as_int(double v, std::int64_t* out) {
  if (v != std::floor(v) || std::abs(v) > 9e15) {
    return false;
  }
  *out = static_cast<std::int64_t>(v);
  return true;
}

}  // namespace

bool parse_completion_request(const std::string& body, CompletionRequest* out,
                              ApiError* err) {
  *out = CompletionRequest{};
  Scanner sc(body);
  if (!sc.consume('{')) {
    return fail(err, "request body must be a JSON object");
  }
  bool saw_prompt = false;
  bool first = true;
  while (true) {
    if (sc.consume('}')) {
      break;
    }
    if (!first && !sc.consume(',')) {
      return fail(err, "expected ',' or '}' in request object");
    }
    first = false;
    std::string key;
    if (!sc.string(&key, kEchoChars)) {
      return fail(err, sc.overlong()
                           ? "unknown field " + quoted(key, true)
                           : "expected a string key in request object");
    }
    if (!sc.consume(':')) {
      return fail(err, "expected ':' after key " + quoted(key, false));
    }
    if (key == "tenant") {
      std::string v;
      const bool scanned = sc.string(&v, kMaxTenantChars);
      if (!scanned && !sc.overlong()) {
        return fail(err, "\"tenant\" must be a string");
      }
      if (!scanned || v.empty()) {
        return fail(err, "\"tenant\" must be 1..64 characters");
      }
      out->tenant = v;
    } else if (key == "priority") {
      std::string v;
      const bool scanned = sc.string(&v, kEchoChars);
      if (!scanned && !sc.overlong()) {
        return fail(err, "\"priority\" must be a string");
      }
      if (!scanned || !priority_from_name(v, &out->priority)) {
        return fail(err, "\"priority\" must be one of batch|standard|"
                         "interactive, got " + quoted(v, sc.overlong()));
      }
    } else if (key == "prompt") {
      if (!sc.consume('[')) {
        return fail(err, "\"prompt\" must be an array of token ids");
      }
      out->prompt.clear();
      if (!sc.consume(']')) {
        while (true) {
          double v = 0.0;
          std::int64_t tok = 0;
          if (!sc.number(&v) || !as_int(v, &tok) || tok < 0) {
            return fail(err, "\"prompt\" entries must be non-negative "
                             "integer token ids");
          }
          if (static_cast<std::int64_t>(out->prompt.size()) == kMaxTokens) {
            return fail(err, "\"prompt\" must hold at most 2^20 token ids");
          }
          out->prompt.push_back(tok);
          if (sc.consume(']')) {
            break;
          }
          if (!sc.consume(',')) {
            return fail(err, "expected ',' or ']' in \"prompt\"");
          }
        }
      }
      saw_prompt = true;
    } else if (key == "max_tokens") {
      double v = 0.0;
      std::int64_t n = 0;
      if (!sc.number(&v) || !as_int(v, &n)) {
        return fail(err, "\"max_tokens\" must be an integer");
      }
      if (n < 1 || n > kMaxTokens) {
        return fail(err, "\"max_tokens\" must be in [1, 2^20]");
      }
      out->max_tokens = n;
    } else if (key == "ttft_slo_ms") {
      double v = 0.0;
      if (!sc.number(&v) || v <= 0.0) {
        return fail(err, "\"ttft_slo_ms\" must be a positive number");
      }
      out->ttft_slo_s = v * 1e-3;
    } else if (key == "timeout_ms") {
      double v = 0.0;
      if (!sc.number(&v) || v <= 0.0) {
        return fail(err, "\"timeout_ms\" must be a positive number");
      }
      out->timeout_s = v * 1e-3;
    } else if (key == "tpot_slo_ms") {
      double v = 0.0;
      if (!sc.number(&v) || v <= 0.0) {
        return fail(err, "\"tpot_slo_ms\" must be a positive number");
      }
      out->tpot_slo_s = v * 1e-3;
    } else {
      return fail(err, "unknown field " + quoted(key, false));
    }
  }
  if (!sc.eof()) {
    return fail(err, "trailing characters after request object");
  }
  if (!saw_prompt) {
    return fail(err, "missing required field \"prompt\"");
  }
  if (out->prompt.empty()) {
    return fail(err, "\"prompt\" must not be empty");
  }
  return true;
}

std::string to_json(const CompletionResponse& r) {
  std::ostringstream os;
  os << "{\"id\": " << r.request_id << ", \"tenant\": \""
     << obs::json_escape(r.tenant) << "\", \"finish_reason\": \""
     << obs::json_escape(r.finish_reason) << "\", \"tokens\": [";
  for (std::size_t i = 0; i < r.tokens.size(); ++i) {
    os << (i != 0 ? ", " : "") << r.tokens[i];
  }
  os << "], \"usage\": {\"prompt_tokens\": " << r.usage.prompt_tokens
     << ", \"completion_tokens\": " << r.usage.completion_tokens
     << ", \"total_tokens\": " << r.usage.total_tokens()
     << "}, \"arrival_s\": " << obs::json_number(r.arrival_s)
     << ", \"ttft_s\": " << obs::json_number(r.ttft_s())
     << ", \"finish_s\": " << obs::json_number(r.finish_s) << "}";
  return os.str();
}

std::string to_json(const ApiError& e) {
  std::ostringstream os;
  os << "{\"error\": {\"status\": " << e.status << ", \"code\": \""
     << burst::error_code_name(e.code) << "\", \"message\": \""
     << obs::json_escape(e.message) << "\"}}";
  return os.str();
}

std::string to_json(const TokenEvent& e) {
  std::ostringstream os;
  os << "{\"id\": " << e.request_id << ", \"index\": " << e.index
     << ", \"token\": " << e.token
     << ", \"time_s\": " << obs::json_number(e.time_s) << "}";
  return os.str();
}

}  // namespace burst::api
