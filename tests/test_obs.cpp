// Unit tests for the obs/ subsystem: metric instruments (counter, gauge,
// histogram percentiles), the registry, metric-name labeling, the typed
// error hierarchy, and the RunReport JSON artifact.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/error.hpp"
#include "obs/report.hpp"

namespace burst::obs {
namespace {

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, OverflowWrapsModulo64Bits) {
  // Counters are unsigned 64-bit: overflow is defined (wraps), never UB.
  Counter c;
  c.add(std::numeric_limits<std::uint64_t>::max());
  c.add(3);
  EXPECT_EQ(c.value(), 2u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&c] {
      for (int j = 0; j < kAdds; ++j) {
        c.add(1);
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Gauge, SetOverwrites) {
  Gauge g;
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Gauge, SetMaxKeepsTheTrueMaximumUnderContention) {
  Gauge g;
  g.set_max(3.0);
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  // Interleaved rising values from several threads: a read-then-set update
  // can let a smaller value overwrite a larger one; set_max must not.
  Gauge hw;
  constexpr int kThreads = 8;
  constexpr int kValues = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&hw, t] {
      for (int j = 0; j < kValues; ++j) {
        hw.set_max(static_cast<double>(j * kThreads + t));
      }
    });
  }
  for (auto& th : ts) {
    th.join();
  }
  EXPECT_DOUBLE_EQ(hw.value(), static_cast<double>(kValues * kThreads - 1));
}

TEST(Histogram, PercentilesNearestRank) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.observe(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
}

TEST(Histogram, PercentilesAreOrderInsensitive) {
  Histogram h;
  for (int i = 100; i >= 1; --i) {
    h.observe(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.observe(7.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 7.0);
}

TEST(Histogram, EmptyIsZeroAndResetClears) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  h.observe(4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(Registry, InternsByName) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_EQ(reg.counter("x").value(), 1u);
  EXPECT_NE(&reg.counter("y"), &a);
}

TEST(Registry, HandlesStayValidAcrossInserts) {
  // Call sites cache Counter* across later registry growth; the node-based
  // map must never move an instrument.
  Registry reg;
  Counter* first = &reg.counter("stable");
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  first->add(5);
  EXPECT_EQ(reg.counter("stable").value(), 5u);
}

TEST(Registry, SnapshotsAreSortedAndReset) {
  Registry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe(3.0);

  const auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "b");
  EXPECT_EQ(counters[1].second, 2u);

  const auto gauges = reg.gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 1.5);

  const auto hists = reg.histograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(hists[0].second.p50, 3.0);

  reg.reset();
  EXPECT_EQ(reg.counters()[0].second, 0u);
  EXPECT_EQ(reg.histograms()[0].second.count, 0u);
}

TEST(Labeled, FormatsDottedNameWithLabels) {
  EXPECT_EQ(labeled("comm.bytes", {{"link", "intra"}, {"rank", "3"}}),
            "comm.bytes{link=intra,rank=3}");
  EXPECT_EQ(labeled("x", {}), "x");
}

TEST(ScopedTimer, FeedsHistogramAndSink) {
  struct Sink : TraceSink {
    std::string name;
    int rank = -1, stream = -1;
    double begin = -1.0, end = -1.0;
    int calls = 0;
    void record(int r, int s, std::string n, double begin_s,
                double end_s) override {
      ++calls;
      rank = r;
      stream = s;
      name = std::move(n);
      begin = begin_s;
      end = end_s;
    }
  };
  Sink sink;
  Registry reg;
  double now = 1.0;
  {
    ScopedTimer timer(&reg, &sink, /*rank=*/2, /*stream=*/0, "phase",
                      [&now] { return now; });
    now = 3.5;
  }
  EXPECT_EQ(sink.calls, 1);
  EXPECT_EQ(sink.name, "phase");
  EXPECT_EQ(sink.rank, 2);
  EXPECT_DOUBLE_EQ(sink.begin, 1.0);
  EXPECT_DOUBLE_EQ(sink.end, 3.5);
  EXPECT_EQ(reg.histogram("phase").count(), 1u);
  EXPECT_DOUBLE_EQ(reg.histogram("phase").percentile(0.5), 2.5);
}

TEST(ScopedTimer, InertWithNoSinks) {
  int now_calls = 0;
  {
    ScopedTimer timer(nullptr, nullptr, 0, 0, "phase", [&now_calls] {
      ++now_calls;
      return 0.0;
    });
  }
  EXPECT_EQ(now_calls, 0);
}

TEST(Error, CarriesStableCode) {
  const Error e(ErrorCode::kCommTimeout, "frame 3 lost");
  EXPECT_EQ(e.code(), ErrorCode::kCommTimeout);
  EXPECT_STREQ(e.code_name(), "comm_timeout");
  EXPECT_STREQ(e.what(), "frame 3 lost");
}

TEST(Error, CodeOfPlainExceptionIsUnknown) {
  const std::runtime_error plain("boom");
  EXPECT_STREQ(error_code_of(plain), "unknown");
  const Error typed(ErrorCode::kDeviceOom, "oom");
  EXPECT_STREQ(error_code_of(typed), "device_oom");
}

TEST(RunReport, JsonShapeIsStable) {
  RunReport rep("bench", "demo");
  rep.config("world_size", 4);
  rep.config("label", std::string("a\"b"));
  rep.measurement("tgs", 123.5, 120.0, "tok/s");
  rep.measurement("extra", 1.0);
  rep.check(true, "ordering holds");

  Registry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(0.5);
  reg.histogram("h").observe(2.0);
  rep.attach_registry(reg);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"schema\": \"burst.run_report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"bench\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"world_size\": 4"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"paper_value\": 120"), std::string::npos);
  EXPECT_NE(json.find("\"paper_value\": null"), std::string::npos);
  EXPECT_NE(json.find("\"c\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"self_check\": true"), std::string::npos);
}

TEST(RunReport, FailedCheckFailsSelfCheck) {
  RunReport rep("bench", "demo");
  rep.check(true, "fine");
  EXPECT_TRUE(rep.self_check());
  rep.check(false, "broken");
  EXPECT_FALSE(rep.self_check());
  EXPECT_NE(rep.to_json().find("\"self_check\": false"), std::string::npos);
}

TEST(RunReport, AddErrorFailsSelfCheck) {
  RunReport rep("training", "run");
  rep.add_error("comm_timeout", "frame lost");
  EXPECT_FALSE(rep.self_check());
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"code\": \"comm_timeout\""), std::string::npos);
}

TEST(RunReport, AddErrorFromTypedException) {
  RunReport rep("training", "run");
  rep.add_error(Error(ErrorCode::kInjectedFault, "rank 2 crashed"));
  EXPECT_FALSE(rep.self_check());
  EXPECT_NE(rep.to_json().find("\"code\": \"injected_fault\""),
            std::string::npos);
}

}  // namespace
}  // namespace burst::obs
