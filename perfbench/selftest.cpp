// Self-tests of the benchmark's own machinery. They run at the start of
// every benchmark run (they take microseconds), and a failure makes the run
// incorrect. Expected quartiles are Python's
// statistics.quantiles(values, n=4) outputs for the same inputs.
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1.0 + std::abs(b)); }

bool quartiles_are(const std::vector<double>& v, double q1, double q2,
                   double q3) {
  const Quartiles q = quartiles(v);
  return near(q.q1, q1) && near(q.q2, q2) && near(q.q3, q3);
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

}  // namespace

void run_selftests(Result& res) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!res.check(ok, "selftest: " + what)) {
      ++failures;
    }
  };

  // Mean, median and quartiles (Python's exclusive method).
  expect(mean({1, 2, 3, 6}) == 3.0, "mean");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even count");
  expect(median({5, 1, 3}) == 3.0, "median of an odd count");
  expect(quartiles_are(iota(10), 2.75, 5.5, 8.25), "quartiles of 1..10");
  expect(quartiles_are({3.0, 1.0}, 0.5, 2.0, 3.5), "quartiles of two samples");
  expect(quartiles_are({5, 1, 4, 2, 3}, 1.5, 3.0, 4.5), "quartiles of five");

  // Tail percentile: the highest level with >= 10 samples beyond it.
  expect(!tail(iota(19)).has_value(), "no tail below 20 samples");
  {
    const auto t = tail(iota(20));
    expect(t && t->label == "p50" && t->value == 10.0 && t->beyond == 10,
           "p50 is the tail at 20 samples");
  }
  {
    const auto t = tail(iota(100));
    expect(t && t->label == "p90" && t->value == 90.0 && t->beyond == 10,
           "p90 is the tail at 100 samples");
  }
  {
    const auto t = tail(iota(99));
    expect(t && t->label == "p50", "p90 needs 100 samples");
  }
  {
    const auto t = tail(iota(1000));
    expect(t && t->label == "p99" && t->value == 990.0 && t->beyond == 10,
           "p99 is the tail at 1000 samples");
  }

  // Unattributed remainder: parts plus remainder equal the whole, and a
  // part larger than its share yields a negative remainder.
  {
    Breakdown b(10.0);
    b.part("a", 2.5);
    b.part("b", 4.0);
    expect(b.attributed() == 6.5 && b.unattributed() == 3.5 &&
               b.attributed() + b.unattributed() == b.whole(),
           "breakdown remainder");
    Breakdown over(1.0);
    over.part("a", 1.25);
    expect(over.unattributed() == -0.25, "negative remainder is kept");
    expect(Breakdown(3.0).unattributed() == 3.0, "no parts: all unattributed");
  }

  // Spans nest per thread: a span opened inside another names it as its
  // parent and lies within it; a null recorder records nothing.
  {
    SpanRecorder rec;
    {
      ScopedSpan outer(&rec, "model.step");
      ScopedSpan inner(&rec, "kernels.attn");
      ScopedSpan none(nullptr, "tensor.gemm");
    }
    std::thread([&] { ScopedSpan other(&rec, "comm.send"); }).join();
    const auto spans = rec.spans();
    expect(spans.size() == 3 && spans[0].parent == -1 && spans[1].parent == 0 &&
               spans[2].parent == -1,
           "span parent links");
    expect(spans.size() == 3 && spans[0].begin_s <= spans[1].begin_s &&
               spans[1].end_s <= spans[0].end_s,
           "child span lies within its parent");
    expect(spans.size() == 3 && spans[0].thread == spans[1].thread &&
               spans[2].thread != spans[0].thread,
           "spans record their thread");
  }
  res.note("selftests: " + std::string(failures == 0 ? "all passed" : "FAILED"));
}

}  // namespace perfbench
