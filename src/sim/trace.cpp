#include "sim/trace.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "sim/clock.hpp"

namespace burst::sim {

namespace {

const char* stream_name(int stream) {
  switch (stream) {
    case kCompute:
      return "compute";
    case kIntraComm:
      return "intra-node (NVLink)";
    case kInterComm:
      return "inter-node (IB)";
    default:
      return "stream";
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  // Devices record from their own threads, so events_ is in arrival order.
  // Sorting makes identical runs write byte-identical JSON.
  std::vector<TraceEvent> events = this->events();
  const auto key = [](const TraceEvent& e) {
    return std::tie(e.rank, e.stream, e.begin_s, e.end_s, e.name);
  };
  std::sort(events.begin(), events.end(),
            [&](const TraceEvent& a, const TraceEvent& b) {
              return key(a) < key(b);
            });
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Thread-name metadata makes the streams readable in the viewer; the
  // sorted events yield each (pid, tid) pair in order.
  std::vector<std::pair<int, int>> named;
  for (const auto& e : events) {
    if (named.empty() || named.back() != std::make_pair(e.rank, e.stream)) {
      named.emplace_back(e.rank, e.stream);
    }
  }
  for (const auto& [rank, stream] : named) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << rank
       << ",\"tid\":" << stream << ",\"args\":{\"name\":\""
       << stream_name(stream) << "\"}}";
  }
  for (const auto& e : events) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << "{\"ph\":\"X\",\"name\":\"" << json_escape(e.name)
       << "\",\"pid\":" << e.rank << ",\"tid\":" << e.stream
       << ",\"ts\":" << e.begin_s * 1e6
       << ",\"dur\":" << (e.end_s - e.begin_s) * 1e6 << "}";
  }
  os << "\n]}\n";
}

double TraceRecorder::overlap_fraction(int rank) const {
  std::lock_guard lock(mu_);
  double compute = 0.0;
  double comm = 0.0;
  double makespan = 0.0;
  for (const auto& e : events_) {
    if (e.rank != rank) {
      continue;
    }
    makespan = std::max(makespan, e.end_s);
    if (e.stream == kCompute) {
      compute += e.end_s - e.begin_s;
    } else {
      comm += e.end_s - e.begin_s;
    }
  }
  if (comm <= 0.0) {
    return 1.0;
  }
  const double exposed = std::max(0.0, makespan - compute);
  return std::clamp(1.0 - exposed / comm, 0.0, 1.0);
}

}  // namespace burst::sim
