#include "api/server.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "api/parser.hpp"

namespace burst::api {

ApiServer::ApiServer(const model::ModelConfig& model,
                     const model::ModelWeights& weights, ApiServerConfig cfg)
    : model_(model), weights_(weights), cfg_(std::move(cfg)) {
  // Intern configured tenants first so their ids are stable regardless of
  // which tenant's request happens to arrive first.
  for (const auto& [name, weight] : cfg_.tenant_weights) {
    const std::int64_t id = tenant_id(name);
    tenant_weight_table_[static_cast<std::size_t>(id)] = weight;
  }
}

std::int64_t ApiServer::tenant_id(const std::string& name) {
  const auto it = tenant_ids_.find(name);
  if (it != tenant_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::int64_t>(tenant_names_.size());
  tenant_ids_.emplace(name, id);
  tenant_names_.push_back(name);
  tenant_weight_table_.push_back(1.0);
  return id;
}

std::int64_t ApiServer::submit(double arrival_s, const std::string& body,
                               ResponseSink* sink) {
  CompletionRequest request;
  ApiError err;
  if (!parse_completion_request(body, &request, &err)) {
    ++invalid_;
    if (sink != nullptr) {
      sink->on_error(-1, err);
    }
    return -1;
  }
  return submit(arrival_s, std::move(request), sink);
}

std::int64_t ApiServer::submit(double arrival_s, CompletionRequest request,
                               ResponseSink* sink) {
  // Model-dependent validation the parser cannot do: token ids vs vocab.
  const auto reject = [&](const std::string& message) {
    ++invalid_;
    if (sink != nullptr) {
      ApiError err;
      err.status = 400;
      err.code = burst::ErrorCode::kInvalidRequest;
      err.message = message;
      sink->on_error(-1, err);
    }
    return std::int64_t{-1};
  };
  if (arrival_s < 0.0) {
    return reject("arrival time must be >= 0");
  }
  if (request.prompt.empty()) {
    return reject("\"prompt\" must not be empty");
  }
  if (request.max_tokens < 1) {
    return reject("\"max_tokens\" must be >= 1");
  }
  if (request.tenant.empty() || request.tenant.size() > 64) {
    return reject("\"tenant\" must be 1..64 characters");
  }
  for (const std::int64_t tok : request.prompt) {
    if (tok < 0 || tok >= model_.vocab) {
      std::ostringstream os;
      os << "prompt token " << tok << " outside vocab [0, " << model_.vocab
         << ")";
      return reject(os.str());
    }
  }

  Accepted a;
  a.request.prompt = std::move(request.prompt);
  a.request.max_new_tokens = request.max_tokens;
  a.request.arrival_s = arrival_s;
  a.request.tenant = tenant_id(request.tenant);
  a.request.priority = static_cast<int>(request.priority);
  a.request.ttft_target_s = request.ttft_slo_s > 0.0
                                ? request.ttft_slo_s
                                : std::numeric_limits<double>::infinity();
  a.request.timeout_s = request.timeout_s > 0.0
                            ? request.timeout_s
                            : std::numeric_limits<double>::infinity();
  a.request.tpot_target_s = request.tpot_slo_s > 0.0
                                ? request.tpot_slo_s
                                : std::numeric_limits<double>::infinity();
  // Engine ids are assignment-order-sequential, so the id is known now and
  // the caller can correlate streamed events before run() happens.
  a.request.id = static_cast<std::int64_t>(accepted_.size());
  a.sink = sink;
  accepted_.push_back(std::move(a));
  return accepted_.back().request.id;
}

ApiServer::Report ApiServer::run() {
  serve::EngineConfig ec = cfg_.engine;
  ec.tenant_weights = tenant_weight_table_;
  serve::Engine engine(model_, weights_, ec);
  for (const auto& a : accepted_) {
    serve::Request r = a.request;
    r.id = -1;  // the engine re-assigns; assignment order preserves our ids
    engine.add_request(std::move(r));
  }

  Report report;
  report.invalid = invalid_;
  if (accepted_.empty()) {
    return report;
  }
  serve::ServeResilienceConfig rc = cfg_.resilience;
  rc.flops_per_s = cfg_.flops_per_s;
  if (rc.trace == nullptr) {
    rc.trace = cfg_.engine.trace;
  }
  serve::ResilientServeReport rrep = serve::serve_with_recovery(engine, rc);
  report.recoveries = std::move(rrep.recoveries);
  report.metrics = rrep.report.metrics;
  report.results = std::move(rrep.report.results);

  // Replay outcomes as one virtual-time-ordered stream. kind breaks ties so
  // a request's final response lands after its last token at the same
  // instant (0 = token, 1 = completion/error).
  struct Event {
    double time_s = 0.0;
    int kind = 0;
    std::int64_t request_id = -1;
    std::int64_t index = 0;
  };
  std::vector<Event> events;
  for (const auto& r : report.results) {
    switch (r.outcome) {
      case serve::Outcome::kRejected:
        events.push_back({std::max(r.arrival_s, 0.0), 1, r.id, 0});
        ++report.rejected;
        continue;
      case serve::Outcome::kFailedFast:
        // finish_s is the arrival instant: a breaker 503 is immediate.
        events.push_back({std::max(r.finish_s, 0.0), 1, r.id, 0});
        ++report.failed_fast;
        continue;
      case serve::Outcome::kTimedOut:
        ++report.timed_out;
        break;
      case serve::Outcome::kShed:
        ++report.shed;
        break;
      case serve::Outcome::kCompleted:
        ++report.completed;
        break;
      case serve::Outcome::kPending:
        break;
    }
    // Streamed outcomes: any tokens generated before the terminal event are
    // replayed first (a timed-out request delivers its partial stream, then
    // the 504), the terminal response lands at finish_s.
    for (std::size_t j = 0; j < r.token_times_s.size(); ++j) {
      events.push_back(
          {r.token_times_s[j], 0, r.id, static_cast<std::int64_t>(j)});
    }
    events.push_back({r.finish_s, 1, r.id, 0});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time_s != b.time_s) {
      return a.time_s < b.time_s;
    }
    if (a.kind != b.kind) {
      return a.kind < b.kind;
    }
    if (a.request_id != b.request_id) {
      return a.request_id < b.request_id;
    }
    return a.index < b.index;
  });

  for (const Event& ev : events) {
    const auto slot = static_cast<std::size_t>(ev.request_id);
    ResponseSink* sink = accepted_[slot].sink;
    if (sink == nullptr) {
      continue;
    }
    const serve::RequestResult& r = report.results[slot];
    if (ev.kind == 0) {
      TokenEvent te;
      te.request_id = r.id;
      te.index = ev.index;
      te.token = r.generated[static_cast<std::size_t>(ev.index)];
      te.time_s = ev.time_s;
      sink->on_token(te);
      continue;
    }
    if (r.outcome != serve::Outcome::kCompleted) {
      ApiError err;
      err.status = serve::outcome_http_status(r.outcome);
      std::ostringstream os;
      switch (r.outcome) {
        case serve::Outcome::kRejected:
          err.code = burst::ErrorCode::kAdmissionRejected;
          os << "admission control rejected request " << r.id << ": "
             << serve::reject_reason_name(r.reject_reason);
          break;
        case serve::Outcome::kTimedOut:
          err.code = burst::ErrorCode::kDeadlineExceeded;
          os << "request " << r.id << " exceeded its deadline after "
             << r.generated.size() << " tokens";
          break;
        case serve::Outcome::kShed:
          err.code = burst::ErrorCode::kOverloaded;
          os << "request " << r.id << " shed under overload";
          break;
        case serve::Outcome::kFailedFast:
          err.code = burst::ErrorCode::kRecoveryInProgress;
          os << "request " << r.id
             << " failed fast: engine recovery in progress";
          break;
        default:
          err.code = burst::ErrorCode::kUnknown;
          os << "request " << r.id << " resolved to "
             << serve::outcome_name(r.outcome);
          break;
      }
      err.message = os.str();
      sink->on_error(r.id, err);
      continue;
    }
    CompletionResponse resp;
    resp.request_id = r.id;
    resp.tenant = tenant_name(r.tenant);
    resp.tokens = r.generated;
    resp.usage.prompt_tokens =
        static_cast<std::int64_t>(accepted_[slot].request.prompt.size());
    resp.usage.completion_tokens = static_cast<std::int64_t>(r.generated.size());
    resp.arrival_s = r.arrival_s;
    resp.first_token_s = r.first_token_s;
    resp.finish_s = r.finish_s;
    sink->on_complete(resp);
  }
  return report;
}

}  // namespace burst::api
