// API front door: request parsing/validation (typed 400s), end-to-end
// streaming through the in-process server, 429 admission errors, and
// byte-identical replay determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/loadgen.hpp"
#include "api/parser.hpp"
#include "api/server.hpp"
#include "obs/error.hpp"

namespace burst::api {
namespace {

// --- parser ----------------------------------------------------------------

TEST(ApiParser, ParsesFullRequest) {
  CompletionRequest req;
  ApiError err;
  ASSERT_TRUE(parse_completion_request(
      R"({"tenant": "acme", "priority": "interactive",
          "prompt": [1, 2, 3], "max_tokens": 7, "ttft_slo_ms": 250})",
      &req, &err));
  EXPECT_EQ(req.tenant, "acme");
  EXPECT_EQ(req.priority, Priority::kInteractive);
  EXPECT_EQ(req.prompt, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(req.max_tokens, 7);
  EXPECT_NEAR(req.ttft_slo_s, 0.25, 1e-12);
}

TEST(ApiParser, DefaultsApplyWhenOmitted) {
  CompletionRequest req;
  ApiError err;
  ASSERT_TRUE(parse_completion_request(R"({"prompt": [5]})", &req, &err));
  EXPECT_EQ(req.tenant, "default");
  EXPECT_EQ(req.priority, Priority::kStandard);
  EXPECT_EQ(req.max_tokens, 16);
  EXPECT_LE(req.ttft_slo_s, 0.0);  // no target
}

TEST(ApiParser, RejectsMalformedBodiesWithTyped400) {
  const std::vector<std::string> bad = {
      "",                                      // not an object
      "[1, 2]",                                // wrong top-level type
      R"({"prompt": [1]} trailing)",           // trailing garbage
      R"({"prompt": []})",                     // empty prompt
      R"({"max_tokens": 4})",                  // missing prompt
      R"({"prompt": [1.5]})",                  // non-integer token
      R"({"prompt": [-3]})",                   // negative token
      R"({"prompt": [1], "max_tokens": 0})",   // out-of-range max_tokens
      R"({"prompt": [1], "priority": "vip"})", // unknown priority
      R"({"prompt": [1], "ttft_slo_ms": -1})", // non-positive SLO
      R"({"prompt": [1], "model": "gpt"})",    // unknown field
      R"({"prompt": [1)",                      // truncated
  };
  for (const auto& body : bad) {
    CompletionRequest req;
    ApiError err;
    EXPECT_FALSE(parse_completion_request(body, &req, &err)) << body;
    EXPECT_EQ(err.status, 400) << body;
    EXPECT_EQ(err.code, burst::ErrorCode::kInvalidRequest) << body;
    EXPECT_FALSE(err.message.empty()) << body;
  }
}

// The documented ranges are inclusive at both ends: max_tokens in [1, 2^20].
TEST(ApiParser, MaxTokensBoundsAreInclusive) {
  constexpr std::int64_t kMax = std::int64_t{1} << 20;
  for (const std::int64_t v : {std::int64_t{1}, kMax}) {
    const std::string body =
        R"({"prompt": [1], "max_tokens": )" + std::to_string(v) + "}";
    CompletionRequest req;
    ApiError err;
    ASSERT_TRUE(parse_completion_request(body, &req, &err)) << body;
    EXPECT_EQ(req.max_tokens, v);
  }
  for (const std::int64_t v : {std::int64_t{-1}, std::int64_t{0}, kMax + 1}) {
    const std::string body =
        R"({"prompt": [1], "max_tokens": )" + std::to_string(v) + "}";
    CompletionRequest req;
    ApiError err;
    EXPECT_FALSE(parse_completion_request(body, &req, &err)) << body;
    EXPECT_EQ(err.status, 400) << body;
    EXPECT_EQ(err.code, burst::ErrorCode::kInvalidRequest) << body;
  }
}

// Tenant names are 1..64 characters, both ends included.
TEST(ApiParser, TenantLengthBoundsAreInclusive) {
  for (const std::size_t len : {std::size_t{1}, std::size_t{64}}) {
    const std::string tenant(len, 't');
    const std::string body =
        R"({"prompt": [1], "tenant": ")" + tenant + "\"}";
    CompletionRequest req;
    ApiError err;
    ASSERT_TRUE(parse_completion_request(body, &req, &err)) << len;
    EXPECT_EQ(req.tenant, tenant);
  }
  for (const std::size_t len : {std::size_t{0}, std::size_t{65}}) {
    const std::string body =
        R"({"prompt": [1], "tenant": ")" + std::string(len, 't') + "\"}";
    CompletionRequest req;
    ApiError err;
    EXPECT_FALSE(parse_completion_request(body, &req, &err)) << len;
    EXPECT_EQ(err.status, 400) << len;
    EXPECT_EQ(err.code, burst::ErrorCode::kInvalidRequest) << len;
  }
}

// The prompt holds at most 2^20 token ids (the max_tokens bound); the
// parser rejects the next one before it stores it.
TEST(ApiParser, PromptLengthBoundIsInclusive) {
  constexpr std::size_t kMax = std::size_t{1} << 20;
  for (const std::size_t n : {kMax, kMax + 1}) {
    std::string body = R"({"prompt": [)";
    body.reserve(body.size() + 2 * n + 2);
    for (std::size_t i = 0; i < n; ++i) {
      body += i == 0 ? "7" : ",7";
    }
    body += "]}";
    CompletionRequest req;
    ApiError err;
    const bool ok = parse_completion_request(body, &req, &err);
    EXPECT_EQ(ok, n == kMax) << n << ": " << err.message;
    if (ok) {
      EXPECT_EQ(req.prompt.size(), kMax);
    } else {
      EXPECT_EQ(err.status, 400);
      EXPECT_NE(err.message.find("2^20"), std::string::npos) << err.message;
    }
  }
}

// Hostile strings: a tenant counts escapes as one character each and stops
// at 64, and a long key or priority is echoed in the error only as a short
// prefix.
TEST(ApiParser, HostileStringsAreBoundedInErrors) {
  const auto parse = [](const std::string& body, ApiError* err) {
    CompletionRequest req;
    const bool ok = parse_completion_request(body, &req, err);
    return ok ? req.tenant : std::string();
  };
  std::string escaped64;
  for (int i = 0; i < 64; ++i) {
    escaped64 += "\\n";
  }
  ApiError err;
  EXPECT_EQ(parse(R"({"prompt": [1], "tenant": ")" + escaped64 + "\"}", &err),
            std::string(64, '\n'));
  EXPECT_EQ(parse(R"({"prompt": [1], "tenant": ")" + escaped64 + "x\"}", &err),
            "");
  EXPECT_NE(err.message.find("1..64"), std::string::npos) << err.message;

  const std::string huge(1 << 20, 'k');
  const std::vector<std::string> hostile = {
      R"({"prompt": [1], "tenant": ")" + huge + "\"}",
      R"({"prompt": [1], ")" + huge + R"(": 1})",
      R"({"prompt": [1], "priority": ")" + huge + "\"}",
      R"({"prompt": [1], "priority": ")" + huge,  // unterminated
  };
  for (const std::string& body : hostile) {
    err = ApiError{};
    EXPECT_EQ(parse(body, &err), "");
    EXPECT_EQ(err.status, 400);
    EXPECT_EQ(err.code, burst::ErrorCode::kInvalidRequest);
    EXPECT_LT(err.message.size(), 128u) << err.message.substr(0, 200);
  }
  EXPECT_NE(err.message.find("got \"kkkk"), std::string::npos) << err.message;
}

TEST(ApiParser, PriorityNamesRoundTrip) {
  for (const Priority p :
       {Priority::kBatch, Priority::kStandard, Priority::kInteractive}) {
    Priority back = Priority::kStandard;
    ASSERT_TRUE(priority_from_name(priority_name(p), &back));
    EXPECT_EQ(back, p);
  }
}

TEST(ApiParser, ErrorJsonCarriesStableCode) {
  ApiError err;
  err.status = 429;
  err.code = burst::ErrorCode::kAdmissionRejected;
  err.message = "queue_full";
  const std::string j = to_json(err);
  EXPECT_NE(j.find("\"status\": 429"), std::string::npos) << j;
  EXPECT_NE(j.find("admission_rejected"), std::string::npos) << j;
}

// --- server ----------------------------------------------------------------

model::ModelConfig serve_toy() {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.kv_heads = 2;
  cfg.use_rope = true;
  return cfg;
}

const model::ModelWeights& toy_weights() {
  static const model::ModelWeights w =
      model::ModelWeights::init(serve_toy(), 73);
  return w;
}

std::string body_for(std::uint64_t seed, std::int64_t len,
                     const std::string& extra = "") {
  const auto prompt =
      LoadGen::materialize_prompt(seed, len, serve_toy().vocab);
  std::ostringstream os;
  os << "{\"prompt\": [";
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    os << (i != 0 ? ", " : "") << prompt[i];
  }
  os << "]" << extra << "}";
  return os.str();
}

TEST(ApiServer, StreamsTokensThenCompletion) {
  ApiServerConfig cfg;
  cfg.engine.block_tokens = 8;
  ApiServer server(serve_toy(), toy_weights(), cfg);
  CollectingSink a;
  CollectingSink b;
  const std::int64_t id_a =
      server.submit(0.0, body_for(11, 24, ", \"max_tokens\": 6"), &a);
  const std::int64_t id_b = server.submit(
      0.0, body_for(12, 16, ", \"max_tokens\": 4, \"tenant\": \"acme\""), &b);
  ASSERT_EQ(id_a, 0);
  ASSERT_EQ(id_b, 1);

  const auto report = server.run();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.invalid, 0);

  ASSERT_EQ(a.tokens.size(), 6u);
  ASSERT_EQ(a.completions.size(), 1u);
  EXPECT_TRUE(a.errors.empty());
  for (std::size_t i = 0; i < a.tokens.size(); ++i) {
    EXPECT_EQ(a.tokens[i].request_id, id_a);
    EXPECT_EQ(a.tokens[i].index, static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_GE(a.tokens[i].time_s, a.tokens[i - 1].time_s);
    }
    EXPECT_EQ(a.tokens[i].token, a.completions[0].tokens[i]);
  }
  const auto& done = a.completions[0];
  EXPECT_EQ(done.request_id, id_a);
  EXPECT_EQ(done.tenant, "default");
  EXPECT_EQ(done.usage.prompt_tokens, 24);
  EXPECT_EQ(done.usage.completion_tokens, 6);
  EXPECT_EQ(done.usage.total_tokens(), 30);
  EXPECT_EQ(done.finish_reason, "length");
  EXPECT_GT(done.ttft_s(), 0.0);
  EXPECT_GE(done.finish_s, done.first_token_s);

  ASSERT_EQ(b.completions.size(), 1u);
  EXPECT_EQ(b.completions[0].tenant, "acme");
  EXPECT_EQ(b.completions[0].usage.completion_tokens, 4);
}

TEST(ApiServer, MalformedBodyGets400WithoutRunning) {
  ApiServerConfig cfg;
  ApiServer server(serve_toy(), toy_weights(), cfg);
  CollectingSink sink;
  EXPECT_EQ(server.submit(0.0, "{not json", &sink), -1);
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].first, -1);
  EXPECT_EQ(sink.errors[0].second.status, 400);
  EXPECT_EQ(sink.errors[0].second.code, burst::ErrorCode::kInvalidRequest);
  const auto report = server.run();
  EXPECT_EQ(report.invalid, 1);
  EXPECT_EQ(report.completed, 0);
}

TEST(ApiServer, OutOfVocabTokenGets400) {
  ApiServerConfig cfg;
  ApiServer server(serve_toy(), toy_weights(), cfg);
  CollectingSink sink;
  std::ostringstream os;
  os << "{\"prompt\": [" << serve_toy().vocab << "]}";
  EXPECT_EQ(server.submit(0.0, os.str(), &sink), -1);
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].second.status, 400);
}

TEST(ApiServer, AdmissionRejectionDeliversTyped429) {
  ApiServerConfig cfg;
  cfg.engine.block_tokens = 8;
  cfg.engine.max_kv_blocks = 2;  // 16 KV tokens: no request below can fit
  ApiServer server(serve_toy(), toy_weights(), cfg);
  CollectingSink sink;
  const std::int64_t id =
      server.submit(0.0, body_for(21, 24, ", \"max_tokens\": 6"), &sink);
  ASSERT_EQ(id, 0);
  const auto report = server.run();
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.rejected, 1);
  EXPECT_TRUE(sink.tokens.empty());
  EXPECT_TRUE(sink.completions.empty());
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].first, id);
  EXPECT_EQ(sink.errors[0].second.status, 429);
  EXPECT_EQ(sink.errors[0].second.code,
            burst::ErrorCode::kAdmissionRejected);
  EXPECT_NE(sink.errors[0].second.message.find("kv_infeasible"),
            std::string::npos);
}

TEST(ApiServer, TenantWeightsInternedStably) {
  ApiServerConfig cfg;
  cfg.tenant_weights = {{"gold", 4.0}, {"bronze", 1.0}};
  ApiServer server(serve_toy(), toy_weights(), cfg);
  EXPECT_EQ(server.tenant_id("gold"), 0);
  EXPECT_EQ(server.tenant_id("bronze"), 1);
  EXPECT_EQ(server.tenant_id("walk-in"), 2);
  EXPECT_EQ(server.tenant_id("gold"), 0);  // stable on re-lookup
  EXPECT_EQ(server.tenant_name(2), "walk-in");
  EXPECT_EQ(server.num_tenants(), 3);
}

// Two servers fed the same submissions produce byte-identical streams —
// the determinism claim the whole front door rests on.
TEST(ApiServer, ReplayIsByteIdentical) {
  const auto play = [&] {
    ApiServerConfig cfg;
    cfg.engine.sched.policy = serve::BatchPolicy::kSlo;
    cfg.engine.block_tokens = 8;
    ApiServer server(serve_toy(), toy_weights(), cfg);
    auto sinks = std::vector<CollectingSink>(4);
    for (std::uint64_t i = 0; i < 4; ++i) {
      server.submit(0.01 * static_cast<double>(i),
                    body_for(40 + i, 16 + 8 * static_cast<std::int64_t>(i),
                             ", \"max_tokens\": 5"),
                    &sinks[i]);
    }
    server.run();
    std::ostringstream os;
    for (const auto& s : sinks) {
      for (const auto& t : s.tokens) {
        os << to_json(t) << "\n";
      }
      for (const auto& c : s.completions) {
        os << to_json(c) << "\n";
      }
      for (const auto& [id, e] : s.errors) {
        os << id << " " << to_json(e) << "\n";
      }
    }
    return os.str();
  };
  const std::string first = play();
  const std::string second = play();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace burst::api
