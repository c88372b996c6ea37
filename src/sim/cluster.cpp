#include "sim/cluster.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "obs/error.hpp"
#include "obs/metrics.hpp"

namespace burst::sim {

namespace {

/// src/dst of -1 in a fault entry is a wildcard.
bool link_matches(int fault_src, int fault_dst, int src, int dst) {
  return (fault_src < 0 || fault_src == src) &&
         (fault_dst < 0 || fault_dst == dst);
}

}  // namespace

DeviceContext::DeviceContext(Cluster& cluster, int rank)
    : cluster_(cluster),
      rank_(rank),
      mem_(rank, cluster.config().device_memory_capacity) {
  if (obs::Registry* reg = cluster.config().metrics) {
    const std::string r = std::to_string(rank);
    const auto resolve = [&](const char* link) {
      LinkCounters c;
      c.bytes = &reg->counter(
          obs::labeled("comm.bytes", {{"link", link}, {"rank", r}}));
      c.messages = &reg->counter(
          obs::labeled("comm.messages", {{"link", link}, {"rank", r}}));
      c.bytes_all_ranks =
          &reg->counter(obs::labeled("comm.bytes", {{"link", link}}));
      c.messages_all_ranks =
          &reg->counter(obs::labeled("comm.messages", {{"link", link}}));
      return c;
    };
    obs_intra_ = resolve("intra");
    obs_inter_ = resolve("inter");
  }
}

obs::Registry* DeviceContext::metrics() const {
  return cluster_.config().metrics;
}

int DeviceContext::world_size() const { return cluster_.world_size(); }

const Topology& DeviceContext::topo() const { return cluster_.config().topo; }

bool DeviceContext::claim_crash(std::size_t i, double now_s) {
  {
    std::lock_guard lock(cluster_.fault_mutex_);
    if (cluster_.crash_fired_[i]) {
      return false;
    }
    cluster_.crash_fired_[i] = 1;
    cluster_.count_fault(&Cluster::FaultCounters::crashes);
  }
  if (auto* trace = cluster_.cfg_.trace) {
    trace->record(rank_, kCompute, "fault:crash", now_s, now_s);
  }
  return true;
}

void DeviceContext::check_crash(double now_s) {
  const auto& crashes = cluster_.cfg_.faults.crashes;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const auto& c = crashes[i];
    if (c.rank == rank_ && now_s >= c.at_time_s && claim_crash(i, now_s)) {
      throw InjectedFaultError(
          rank_, i, "device crashed at t=" + std::to_string(now_s) + "s");
    }
  }
}

bool DeviceContext::unreliable_network() const {
  const auto& f = cluster_.cfg_.faults;
  return !f.drops.empty() || !f.duplicates.empty() || !f.corruptions.empty();
}

double DeviceContext::work_scale(double now_s) const {
  double scale = 1.0;
  for (const auto& s : cluster_.cfg_.faults.stragglers) {
    if (s.rank == rank_ && now_s >= s.from_time_s) {
      scale *= s.slowdown;
    }
  }
  return scale;
}

void DeviceContext::begin_step(std::int64_t step) {
  const double now = clock_.elapsed();
  check_crash(now);
  const auto& crashes = cluster_.cfg_.faults.crashes;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const auto& c = crashes[i];
    if (c.rank == rank_ && c.at_step >= 0 && step >= c.at_step &&
        claim_crash(i, now)) {
      throw InjectedFaultError(
          rank_, i, "device crashed at step " + std::to_string(step));
    }
  }
}

void DeviceContext::compute(double flops, int stream, const char* label) {
  const double begin = clock_.now(stream);
  check_crash(begin);
  clock_.advance(stream,
                 flops / cluster_.config().flops_per_s * work_scale(begin));
  if (auto* trace = cluster_.config().trace) {
    trace->record(rank_, stream, label, begin, clock_.now(stream));
  }
}

void DeviceContext::busy(double seconds, int stream, const char* label) {
  const double begin = clock_.now(stream);
  check_crash(begin);
  clock_.advance(stream, seconds * work_scale(begin));
  if (auto* trace = cluster_.config().trace) {
    trace->record(rank_, stream, label, begin, clock_.now(stream));
  }
}

void DeviceContext::send(int dst, int tag, Message msg, int stream) {
  try_send(dst, tag, std::move(msg), stream);
}

bool DeviceContext::try_send(int dst, int tag, Message msg, int stream) {
  const double begin = clock_.now(stream);
  check_crash(begin);
  const LinkParams link = cluster_.effective_link(rank_, dst, begin);
  const double serialize =
      static_cast<double>(msg.bytes) / link.bandwidth_bytes_per_s;
  msg.ready_time = begin + link.latency_s + serialize;
  clock_.advance(stream, serialize);
  const bool intra = cluster_.cfg_.topo.same_node(rank_, dst);
  (intra ? bytes_intra_ : bytes_inter_) += msg.bytes;
  ++msgs_;
  if (const LinkCounters& oc = intra ? obs_intra_ : obs_inter_;
      oc.bytes != nullptr) {
    oc.bytes->add(msg.bytes);
    oc.messages->add(1);
    oc.bytes_all_ranks->add(msg.bytes);
    oc.messages_all_ranks->add(1);
  }
  if (auto* trace = cluster_.config().trace) {
    trace->record(rank_, stream, "send->" + std::to_string(dst), begin,
                  clock_.now(stream));
  }
  const bool delivered = cluster_.post(rank_, dst, tag, std::move(msg), begin);
  if (!delivered) {
    if (auto* trace = cluster_.config().trace) {
      const double now = clock_.now(stream);
      trace->record(rank_, stream, "fault:drop->" + std::to_string(dst), now,
                    now);
    }
  }
  return delivered;
}

Message DeviceContext::recv(int src, int tag, int stream) {
  check_crash(clock_.now(stream));
  Message msg = cluster_.take(src, rank_, tag);
  const double begin = clock_.now(stream);
  clock_.advance_to(stream, msg.ready_time);
  if (auto* trace = cluster_.config().trace) {
    if (clock_.now(stream) > begin) {
      trace->record(rank_, stream, "recv<-" + std::to_string(src), begin,
                    clock_.now(stream));
    }
  }
  return msg;
}

void DeviceContext::barrier() {
  check_crash(clock_.elapsed());
  cluster_.barrier_and_sync(*this);
}

Cluster::Cluster(Config cfg) : cfg_(std::move(cfg)) {
  failed_.assign(static_cast<std::size_t>(world_size()), 0);
  crash_fired_.assign(cfg_.faults.crashes.size(), 0);
  // Sized here too for a lone-rank DeviceContext that never enters run().
  drops_left_.resize(cfg_.faults.drops.size());
  dups_left_.resize(cfg_.faults.duplicates.size());
  corrupts_left_.resize(cfg_.faults.corruptions.size());
  fault_counters_.crashes = &internal_metrics_.counter("sim.faults.crashes_fired");
  fault_counters_.dropped =
      &internal_metrics_.counter("sim.faults.messages_dropped");
  fault_counters_.duplicated =
      &internal_metrics_.counter("sim.faults.messages_duplicated");
  fault_counters_.corrupted =
      &internal_metrics_.counter("sim.faults.messages_corrupted");
  if (cfg_.metrics != nullptr) {
    fault_mirror_.crashes = &cfg_.metrics->counter("sim.faults.crashes_fired");
    fault_mirror_.dropped =
        &cfg_.metrics->counter("sim.faults.messages_dropped");
    fault_mirror_.duplicated =
        &cfg_.metrics->counter("sim.faults.messages_duplicated");
    fault_mirror_.corrupted =
        &cfg_.metrics->counter("sim.faults.messages_corrupted");
  }
}

void Cluster::count_fault(obs::Counter* FaultCounters::* which) {
  (fault_counters_.*which)->add(1);
  if (fault_mirror_.*which != nullptr) {
    (fault_mirror_.*which)->add(1);
  }
}

FaultStats Cluster::fault_stats() const {
  FaultStats s;
  s.crashes_fired = fault_counters_.crashes->value();
  s.messages_dropped = fault_counters_.dropped->value();
  s.messages_duplicated = fault_counters_.duplicated->value();
  s.messages_corrupted = fault_counters_.corrupted->value();
  return s;
}

LinkParams Cluster::effective_link(int src, int dst, double send_time) const {
  LinkParams link = cfg_.topo.link(src, dst);
  for (const auto& d : cfg_.faults.degradations) {
    if (link_matches(d.src, d.dst, src, dst) && send_time >= d.from_time_s &&
        send_time < d.until_time_s) {
      link.latency_s += d.extra_latency_s;
      link.bandwidth_bytes_per_s *= d.bandwidth_factor;
    }
  }
  return link;
}

void Cluster::run(const std::function<void(DeviceContext&)>& fn) {
  const int g = world_size();
  stats_.assign(static_cast<std::size_t>(g), DeviceStats{});
  {
    std::lock_guard lock(mail_mutex_);
    aborted_ = false;
    std::fill(failed_.begin(), failed_.end(), 0);
    first_error_ = nullptr;
    first_error_rank_ = -1;
    first_error_time_ = 0.0;
    root_cause_ = nullptr;
    root_cause_rank_ = -1;
    root_cause_time_ = 0.0;
  }
  last_failure_rank_ = -1;
  last_failure_time_s_ = 0.0;
  {
    std::lock_guard lock(fault_mutex_);
    // Per-message fault counters re-arm each run (a persistently lossy link
    // stays lossy across supervisor retries); crash flags persist so a
    // resumed run does not re-fire a crash it already recovered from.
    drops_left_.assign(cfg_.faults.drops.size(), {});
    dups_left_.assign(cfg_.faults.duplicates.size(), {});
    corrupts_left_.assign(cfg_.faults.corruptions.size(), {});
  }
  {
    std::lock_guard lock(barrier_mutex_);
    barrier_arrived_ = 0;
    barrier_max_time_ = 0.0;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(g));
  for (int r = 0; r < g; ++r) {
    threads.emplace_back([this, r, &fn] {
      DeviceContext ctx(*this, r);
      try {
        fn(ctx);
      } catch (...) {
        report_failure(r, ctx.clock().elapsed(), std::current_exception());
      }
      auto& s = stats_[static_cast<std::size_t>(r)];
      s.elapsed_s = ctx.clock().elapsed();
      s.peak_mem_bytes = ctx.mem().peak();
      s.bytes_sent = ctx.bytes_sent();
      s.messages_sent = ctx.messages_sent();
      s.bytes_sent_intra = ctx.bytes_sent_intra();
      s.bytes_sent_inter = ctx.bytes_sent_inter();
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  std::exception_ptr error;
  {
    std::lock_guard lock(mail_mutex_);
    // Prefer the root cause over secondary ClusterAbortedErrors that peers
    // raised while unwinding; report_failure selected the earliest virtual
    // failure time (ties by rank), so the winner is not racy.
    error = root_cause_ ? root_cause_ : first_error_;
    last_failure_rank_ =
        root_cause_ ? root_cause_rank_ : first_error_rank_;
    last_failure_time_s_ =
        root_cause_ ? root_cause_time_ : first_error_time_;
    if (error) {
      // Leftover messages are expected when a run aborts mid-flight.
      mailboxes_.clear();
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }

  // A clean run must have drained every mailbox, otherwise an algorithm
  // produced an unmatched send — a real protocol bug worth failing loudly
  // on. Duplicates injected by the fault layer are exempt: a receiver that
  // consumed the original has no reason to come back for the copy.
  std::lock_guard lock(mail_mutex_);
  for (const auto& [key, box] : mailboxes_) {
    for (const auto& msg : box) {
      if (!msg.injected_dup) {
        throw burst::InvariantError(
            "Cluster::run finished with undelivered messages");
      }
    }
  }
  mailboxes_.clear();
}

double Cluster::makespan() const {
  double m = 0.0;
  for (const auto& s : stats_) {
    m = std::max(m, s.elapsed_s);
  }
  return m;
}

bool Cluster::post(int src, int dst, int tag, Message msg, double send_time) {
  bool duplicate = false;
  // cfg_.faults is immutable after construction, so the emptiness probe
  // needs no lock and a fault-free run never touches fault_mutex_ on the
  // message hot path.
  const auto& faults = cfg_.faults;
  if (!faults.drops.empty() || !faults.corruptions.empty() ||
      !faults.duplicates.empty()) {
    std::lock_guard lock(fault_mutex_);
    // Budgets are lazily materialized per concrete link: a wildcard entry
    // gives every matching link its own `count`, so which messages a plan
    // hits never depends on real-thread arrival order across links.
    const auto link_budget = [&](auto& left, std::size_t i, int count) {
      return &left[i].try_emplace({src, dst}, count).first->second;
    };
    for (std::size_t i = 0; i < faults.drops.size(); ++i) {
      const auto& d = faults.drops[i];
      if (link_matches(d.src, d.dst, src, dst) && send_time >= d.from_time_s) {
        int* left = link_budget(drops_left_, i, d.count);
        if (*left > 0) {
          --*left;
          count_fault(&FaultCounters::dropped);
          return false;
        }
      }
    }
    for (std::size_t i = 0; i < faults.corruptions.size(); ++i) {
      const auto& c = faults.corruptions[i];
      if (link_matches(c.src, c.dst, src, dst) && send_time >= c.from_time_s &&
          !msg.payload->empty() && msg.payload->front().numel() > 0) {
        int* left = link_budget(corrupts_left_, i, c.count);
        if (*left > 0) {
          --*left;
          count_fault(&FaultCounters::corrupted);
          // In-flight bit rot hits the copy on the wire, never the sender's
          // (possibly still shared) tensors.
          std::vector<tensor::Tensor> rotted = *msg.payload;
          rotted.front().data()[0] += 1024.0f;
          msg.payload = tensor::SharedTensors(std::move(rotted));
        }
      }
    }
    for (std::size_t i = 0; i < faults.duplicates.size(); ++i) {
      const auto& d = faults.duplicates[i];
      if (link_matches(d.src, d.dst, src, dst) && send_time >= d.from_time_s) {
        int* left = link_budget(dups_left_, i, d.count);
        if (*left > 0) {
          --*left;
          count_fault(&FaultCounters::duplicated);
          duplicate = true;
        }
      }
    }
  }
  {
    std::lock_guard lock(mail_mutex_);
    auto& box = mailboxes_[{src, dst, tag}];
    if (duplicate) {
      Message copy = msg;  // shares the payload
      copy.injected_dup = true;
      box.push_back(std::move(msg));
      box.push_back(std::move(copy));
    } else {
      box.push_back(std::move(msg));
    }
  }
  mail_cv_.notify_all();
  return true;
}

Message Cluster::take(int src, int dst, int tag) {
  std::unique_lock lock(mail_mutex_);
  auto& box = mailboxes_[{src, dst, tag}];
  mail_cv_.wait(lock, [this, &box] { return aborted_ || !box.empty(); });
  if (box.empty()) {
    if (failed_[static_cast<std::size_t>(src)]) {
      throw PeerFailedError(src);
    }
    throw ClusterAbortedError();
  }
  Message msg = std::move(box.front());
  box.pop_front();
  return msg;
}

void Cluster::report_failure(int rank, double fail_time_s,
                             std::exception_ptr error) {
  bool secondary = false;
  try {
    std::rethrow_exception(error);
  } catch (const ClusterAbortedError&) {
    secondary = true;  // raised while unwinding from someone else's failure
    // burst-lint: allow(error-flow) classification, not a swallow: any
    // non-abort exception is a root cause; the exception_ptr itself is kept
    // in first_error_ below and rethrown to the caller of run().
  } catch (...) {
  }
  // Earliest virtual failure time wins, ties broken by rank: the winner is
  // a function of the simulation, not of which thread reached the lock
  // first, so concurrent throws attribute deterministically.
  const auto earlier = [&](int prev_rank, double prev_time) {
    return prev_rank < 0 || fail_time_s < prev_time ||
           (fail_time_s == prev_time && rank < prev_rank);
  };
  {
    std::lock_guard lock(mail_mutex_);
    if (earlier(first_error_rank_, first_error_time_)) {
      first_error_ = error;
      first_error_rank_ = rank;
      first_error_time_ = fail_time_s;
    }
    if (!secondary) {
      failed_[static_cast<std::size_t>(rank)] = 1;
      if (earlier(root_cause_rank_, root_cause_time_)) {
        root_cause_ = error;
        root_cause_rank_ = rank;
        root_cause_time_ = fail_time_s;
      }
    }
  }
  abort();
}

void Cluster::abort() {
  {
    std::lock_guard lock(mail_mutex_);
    aborted_ = true;
  }
  mail_cv_.notify_all();
  // Wake devices blocked inside the barrier as well.
  {
    std::lock_guard lock(barrier_mutex_);
    barrier_arrived_ = 0;
    ++barrier_generation_;
  }
  barrier_cv_.notify_all();
}

void Cluster::barrier_and_sync(DeviceContext& ctx) {
  std::unique_lock lock(barrier_mutex_);
  {
    // A peer may already have failed; bail out instead of waiting forever.
    std::lock_guard mail_lock(mail_mutex_);
    if (aborted_) {
      throw ClusterAbortedError();
    }
  }
  barrier_max_time_ = std::max(barrier_max_time_, ctx.clock().elapsed());
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_arrived_ == world_size()) {
    barrier_release_time_ = barrier_max_time_;
    barrier_arrived_ = 0;
    barrier_max_time_ = 0.0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [this, gen] { return barrier_generation_ != gen; });
    std::lock_guard mail_lock(mail_mutex_);
    if (aborted_) {
      throw ClusterAbortedError();
    }
  }
  for (int s = 0; s < kNumStreams; ++s) {
    ctx.clock().advance_to(s, barrier_release_time_);
  }
}

}  // namespace burst::sim
