// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <train_1dev|train_cp4|serve_chat|sweep_timeonly>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Normally launched through perfbench/run.py, which builds this binary from
// source and reduces its last stdout line to the metric set BENCHMARK.json
// names for the mode. The binary prints a human-readable report and, as its
// last line, one JSON object holding every metric it measured.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "parallel/thread_pool.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
}

bool Result::check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  return ok;
}

bool Result::all_checks_passed() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

void Result::print(const Options& opt) const {
  std::printf("== perfbench %s  seed=%llu  seconds=%g  trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& n : notes_) {
    std::printf("   %s\n", n.c_str());
  }
  int failed_checks = 0;
  for (const auto& [what, ok] : checks_) {
    if (!ok) {
      ++failed_checks;
      std::printf("   CHECK FAILED: %s\n", what.c_str());
    }
  }
  std::printf("   checks: %zu run, %d failed\n", checks_.size(), failed_checks);
  std::printf("   attempted=%lld failed=%lld failed_frac=%s\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              num(attempted_ > 0 ? static_cast<double>(failed_) /
                                       static_cast<double>(attempted_)
                                 : 0.0)
                  .c_str());
  for (const auto& [name, v] : metrics_) {
    std::printf("   %-36s %16s %s\n", name.c_str(), num(v.value).c_str(),
                v.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += all_checks_passed() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + escape(name) + "\": {\"value\": " + num(v.value) +
            ", \"unit\": \"" + escape(v.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median_setup_s(const std::function<void()>& fn) {
  constexpr int kReps = 9;
  std::vector<double> s;
  for (int i = 0; i < kReps; ++i) {
    s.push_back(time_s(fn));
  }
  return median(s);
}

burst::model::ModelConfig bench_model(std::int64_t kv_heads) {
  burst::model::ModelConfig c;
  c.layers = 4;
  c.d_model = 256;
  c.heads = 8;
  c.kv_heads = kv_heads;
  c.vocab = 2048;
  c.d_ff = 688;
  c.use_rope = true;
  return c;
}

void pin_pool(std::size_t threads, const Options& opt, Result& res) {
  const std::size_t n = std::clamp<std::size_t>(threads, 1, opt.nproc);
  burst::parallel::ThreadPool::reset_global(n);
  res.note("kernel pool: " + std::to_string(n) + " thread(s) of nproc=" +
           std::to_string(opt.nproc));
}

void report_breakdown(Result& res, const Breakdown& b) {
  std::string line = "breakdown (ms per op): " + num(b.whole()) + " =";
  for (const auto& [name, v] : b.parts()) {
    line += " " + name + " " + num(v) + " +";
  }
  res.note(line + " unattributed " + num(b.unattributed()));
  res.metric("op.wall_ms", b.whole(), "ms");
  res.metric("op.unattributed_ms", b.unattributed(), "ms");
  res.check(std::abs(b.attributed() + b.unattributed() - b.whole()) <=
                1e-9 * std::abs(b.whole()),
            "breakdown parts plus remainder equal the whole");
}

void write_trace(const Options& opt, Result& res, const SpanRecorder& rec,
                 const burst::sim::TraceRecorder* virt) {
  if (opt.trace_out.empty()) {
    return;
  }
  rec.write_chrome_trace(opt.trace_out, virt);
  res.note("trace written: " + opt.trace_out);
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_1dev|train_cp4|serve_chat|"
               "sweep_timeonly> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || opt.seconds <= 0.0) {
    usage();
    return 2;
  }
  // Timings from a non-optimized build are meaningless; refuse to report.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());

  Result res;
  res.note(std::string("build: ") + PERFBENCH_BUILD_TYPE + ", march: " +
           (std::strlen(PERFBENCH_MARCH) > 0 ? PERFBENCH_MARCH : "(default)"));
  try {
    run_selftests(res);
    if (opt.workload == "train_1dev") {
      run_train_1dev(opt, res);
    } else if (opt.workload == "train_cp4") {
      run_train_cp4(opt, res);
    } else if (opt.workload == "serve_chat") {
      run_serve_chat(opt, res);
    } else if (opt.workload == "sweep_timeonly") {
      run_sweep_timeonly(opt, res);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.print(opt);
  return 0;
}
