#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "sim/clock.hpp"

namespace perfbench {

namespace {

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

const char* stream_name(int stream) {
  switch (stream) {
    case burst::sim::kCompute:
      return "compute";
    case burst::sim::kIntraComm:
      return "intra-node comm";
    case burst::sim::kInterComm:
      return "inter-node comm";
    default:
      return "stream";
  }
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_s_(now_s()) {}

int SpanRecorder::thread_index_locked(std::thread::id id) {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == id) {
      return static_cast<int>(i);
    }
  }
  threads_.push_back(id);
  open_stack_.emplace_back();
  return static_cast<int>(threads_.size() - 1);
}

int SpanRecorder::open(const std::string& name) {
  const double t = now_s();
  std::lock_guard lock(mu_);
  const int th = thread_index_locked(std::this_thread::get_id());
  auto& stack = open_stack_[static_cast<std::size_t>(th)];
  WallSpan s;
  s.name = name;
  s.begin_s = t;
  s.end_s = t;
  s.thread = th;
  s.parent = stack.empty() ? -1 : stack.back();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  stack.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  const double t = now_s();
  std::lock_guard lock(mu_);
  WallSpan& s = spans_.at(static_cast<std::size_t>(index));
  auto& stack = open_stack_[static_cast<std::size_t>(s.thread)];
  if (stack.empty() || stack.back() != index) {
    throw std::logic_error("span closed out of order: " + s.name);
  }
  stack.pop_back();
  s.end_s = t;
}

std::vector<WallSpan> SpanRecorder::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      const burst::sim::TraceRecorder* virt) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  os << "{\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"wall clock (benchmark spans)\"}}";
  for (const WallSpan& s : spans()) {
    os << ",\n{\"ph\":\"X\",\"name\":\"" << escape(s.name)
       << "\",\"cat\":\"wall\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << (s.begin_s - origin_s_) * 1e6
       << ",\"dur\":" << (s.end_s - s.begin_s) * 1e6
       << ",\"args\":{\"parent\":" << s.parent << "}}";
  }
  if (virt != nullptr) {
    std::vector<std::pair<int, int>> named;
    const auto events = virt->events();
    for (const auto& e : events) {
      if (std::find(named.begin(), named.end(),
                    std::make_pair(e.rank, e.stream)) == named.end()) {
        named.emplace_back(e.rank, e.stream);
      }
    }
    std::vector<int> ranks;
    for (const auto& [rank, stream] : named) {
      if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
        ranks.push_back(rank);
        os << ",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
           << 1000 + rank << ",\"tid\":0,\"args\":{\"name\":\"virtual clock, "
           << "simulated device " << rank << "\"}}";
      }
      os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << 1000 + rank
         << ",\"tid\":" << stream << ",\"args\":{\"name\":\""
         << stream_name(stream) << "\"}}";
    }
    for (const auto& e : events) {
      os << ",\n{\"ph\":\"X\",\"name\":\"" << escape(e.name)
         << "\",\"cat\":\"virtual\",\"pid\":" << 1000 + e.rank
         << ",\"tid\":" << e.stream << ",\"ts\":" << e.begin_s * 1e6
         << ",\"dur\":" << (e.end_s - e.begin_s) * 1e6 << "}";
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
