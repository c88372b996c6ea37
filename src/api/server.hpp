// In-process API server: the production front door over serve::Engine.
//
// Requests come in through submit() — either a raw JSON body (what a socket
// backend would hand over after framing) or an already-typed
// CompletionRequest — stamped with a virtual-clock arrival time and bound to
// a ResponseSink, the connection abstraction: a real HTTP/socket transport
// later only has to implement the three sink callbacks and feed bodies in
// arrival order (ROADMAP item 4's Transport work slots in exactly there).
//
// run() drives every accepted request through the engine on one simulated
// device and then replays the outcome to the sinks as a single virtual-time-
// ordered stream: TokenEvents as each token completes, one
// CompletionResponse per finished request, and ApiErrors (HTTP-style 429
// with burst::ErrorCode::kAdmissionRejected) for requests the admission
// layer shed. Everything is deterministic in (workload, config): two runs
// of the same server produce byte-identical streams.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/types.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"
#include "serve/engine.hpp"
#include "serve/resilience.hpp"

namespace burst::api {

/// Connection-side half of the server: where responses get delivered. A
/// transport backend implements this against its wire; tests and the demo
/// use CollectingSink. Callbacks run during ApiServer::run(), already
/// ordered by virtual event time.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void on_token(const TokenEvent& event) = 0;
  virtual void on_complete(const CompletionResponse& response) = 0;
  /// `request_id` is -1 for parse/validation errors (no request existed).
  virtual void on_error(std::int64_t request_id, const ApiError& error) = 0;
};

/// Records everything it sees, in delivery order.
class CollectingSink : public ResponseSink {
 public:
  void on_token(const TokenEvent& event) override {
    tokens.push_back(event);
  }
  void on_complete(const CompletionResponse& response) override {
    completions.push_back(response);
  }
  void on_error(std::int64_t request_id, const ApiError& error) override {
    errors.emplace_back(request_id, error);
  }

  std::vector<TokenEvent> tokens;
  std::vector<CompletionResponse> completions;
  std::vector<std::pair<std::int64_t, ApiError>> errors;
};

struct ApiServerConfig {
  /// Engine + scheduler policy. tenant_weights inside is overwritten by the
  /// server from `tenant_weights` below (names, not dense ids).
  serve::EngineConfig engine;
  /// Simulated device compute rate for run().
  double flops_per_s = 100e12;
  /// Weighted-fair share per tenant name; unlisted tenants weigh 1.0.
  std::vector<std::pair<std::string, double>> tenant_weights;
  /// Fault tolerance: run() always goes through serve::serve_with_recovery
  /// — crash faults are recovered from the newest checkpoint and surfaced in
  /// Report::recoveries (flops_per_s and trace are taken from this server
  /// config). A default ServeResilienceConfig is one fault-free
  /// single-device run.
  serve::ServeResilienceConfig resilience;
};

class ApiServer {
 public:
  ApiServer(const model::ModelConfig& model, const model::ModelWeights& weights,
            ApiServerConfig cfg);

  /// Raw-body ingress: parse + validate, then accept. Parse/validation
  /// failures are delivered to `sink->on_error(-1, ...)` immediately and
  /// return -1; accepted requests return their id. `sink` may be null
  /// (fire-and-forget).
  std::int64_t submit(double arrival_s, const std::string& body,
                      ResponseSink* sink);

  /// Typed ingress (the load generator's path — no JSON round trip).
  std::int64_t submit(double arrival_s, CompletionRequest request,
                      ResponseSink* sink);

  struct Report {
    serve::ServeMetrics metrics;
    /// Engine-level per-request records, sorted by id.
    std::vector<serve::RequestResult> results;
    std::int64_t completed = 0;
    std::int64_t rejected = 0;  // admission control (429s delivered)
    std::int64_t invalid = 0;   // parse/validation failures (400s delivered)
    std::int64_t timed_out = 0;    // deadline cancellations (504s delivered)
    std::int64_t shed = 0;         // load-shed drops (503s delivered)
    std::int64_t failed_fast = 0;  // breaker fast-fails (503s delivered)
    /// Crash-recovery episodes when resilience was on (empty otherwise).
    std::vector<serve::ServeRecoveryEvent> recoveries;
  };

  /// Runs every accepted request to completion on one simulated device and
  /// streams the outcome to the sinks in virtual-time order. Repeatable:
  /// each call replays the same accepted workload from scratch (fresh
  /// engine, fresh clock), so two runs are byte-identical.
  Report run();

  /// Interns a tenant name to the dense id the scheduler sees.
  std::int64_t tenant_id(const std::string& name);
  const std::string& tenant_name(std::int64_t id) const {
    return tenant_names_.at(static_cast<std::size_t>(id));
  }
  std::int64_t num_tenants() const {
    return static_cast<std::int64_t>(tenant_names_.size());
  }

 private:
  struct Accepted {
    serve::Request request;  // id assigned at run() admission into the engine
    ResponseSink* sink = nullptr;
  };

  const model::ModelConfig model_;
  const model::ModelWeights& weights_;
  ApiServerConfig cfg_;
  std::map<std::string, std::int64_t> tenant_ids_;
  std::vector<std::string> tenant_names_;
  std::vector<double> tenant_weight_table_;
  std::vector<Accepted> accepted_;
  std::int64_t invalid_ = 0;
};

}  // namespace burst::api
