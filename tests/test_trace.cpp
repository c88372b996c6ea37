#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/cluster.hpp"

namespace burst::sim {
namespace {

TEST(Trace, RecordsComputeIntervals) {
  TraceRecorder trace;
  Cluster::Config cfg;
  cfg.topo = Topology::single_node(2);
  cfg.flops_per_s = 1e9;
  cfg.trace = &trace;
  Cluster cluster(cfg);
  cluster.run([&](DeviceContext& ctx) {
    ctx.compute(1e6, kCompute, "work-a");
    ctx.compute(2e6, kCompute, "work-b");
  });
  auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);  // 2 devices x 2 intervals
  int found_b = 0;
  for (const auto& e : events) {
    if (e.name == "work-b") {
      EXPECT_NEAR(e.end_s - e.begin_s, 2e-3, 1e-9);
      ++found_b;
    }
  }
  EXPECT_EQ(found_b, 2);
}

TEST(Trace, RecordsSendAndRecvWaits) {
  TraceRecorder trace;
  Cluster::Config cfg;
  cfg.topo = Topology::single_node(2);
  cfg.topo.intra = {1e-3, 1e6};
  cfg.trace = &trace;
  Cluster cluster(cfg);
  cluster.run([&](DeviceContext& ctx) {
    if (ctx.rank() == 0) {
      Message m;
      m.bytes = 1000;
      ctx.send(1, 0, std::move(m), kIntraComm);
    } else {
      // burst-lint: allow(no-unchecked-recv) trace events are the assertion, not the payload
      ctx.recv(0, 0, kIntraComm);
    }
  });
  bool saw_send = false;
  bool saw_recv = false;
  for (const auto& e : trace.events()) {
    saw_send = saw_send || e.name == "send->1";
    saw_recv = saw_recv || e.name == "recv<-0";
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}

TEST(Trace, ChromeJsonIsWellFormedish) {
  TraceRecorder trace;
  trace.record(0, kCompute, "alpha \"quoted\"", 0.0, 1e-3);
  trace.record(1, kInterComm, "beta", 1e-3, 2e-3);
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("alpha \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("inter-node (IB)"), std::string::npos);
  // Balanced braces at the ends.
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s[s.size() - 2], '}');
}

// Devices record from their own threads, so arrival order varies run to
// run; the written JSON must not.
TEST(Trace, ChromeJsonIsIndependentOfArrivalOrder) {
  const std::vector<TraceEvent> events = {
      {1, kInterComm, "send", 2.0, 3.0}, {0, kCompute, "b", 1.0, 2.0},
      {0, kCompute, "a", 1.0, 2.0},      {1, kCompute, "c", 0.0, 4.0},
      {0, kIntraComm, "recv", 0.5, 1.5}, {0, kCompute, "a", 1.0, 1.5},
  };
  const auto write = [](const std::vector<TraceEvent>& order) {
    TraceRecorder trace;
    for (const auto& e : order) {
      trace.record(e.rank, e.stream, e.name, e.begin_s, e.end_s);
    }
    std::ostringstream os;
    trace.write_chrome_trace(os);
    return os.str();
  };
  const std::vector<TraceEvent> reversed(events.rbegin(), events.rend());
  const std::string forward_json = write(events);
  EXPECT_EQ(forward_json, write(reversed));
  // Metadata for rank 0 precedes rank 1, and spans follow (ts, end, name).
  EXPECT_LT(forward_json.find("\"pid\":0"), forward_json.find("\"pid\":1"));
  EXPECT_LT(forward_json.find("\"name\":\"a\""),
            forward_json.find("\"name\":\"b\""));
}

TEST(Trace, OverlapFractionExtremes) {
  TraceRecorder trace;
  // Fully hidden: comm inside compute window.
  trace.record(0, kCompute, "c", 0.0, 10.0);
  trace.record(0, kIntraComm, "m", 2.0, 4.0);
  EXPECT_NEAR(trace.overlap_fraction(0), 1.0, 1e-9);
  // Fully exposed: comm after compute.
  trace.record(1, kCompute, "c", 0.0, 1.0);
  trace.record(1, kIntraComm, "m", 1.0, 3.0);
  EXPECT_NEAR(trace.overlap_fraction(1), 0.0, 1e-9);
  // No comm at all -> trivially 1.0.
  trace.record(2, kCompute, "c", 0.0, 1.0);
  EXPECT_NEAR(trace.overlap_fraction(2), 1.0, 1e-9);
}

TEST(Trace, ClearEmptiesBuffer) {
  TraceRecorder trace;
  trace.record(0, 0, "x", 0.0, 1.0);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace burst::sim
