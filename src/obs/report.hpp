// RunReport: the one structured result artifact every entry point emits —
// training loops, the serve engine, and all reproduction benches.
//
// Stable, versioned JSON schema (`burst.run_report`, version 1):
//
//   {
//     "schema": "burst.run_report",
//     "version": 1,
//     "kind": "bench" | "training" | "serving",
//     "name": "table1_comm_time",
//     "config": { "<key>": <scalar>, ... },
//     "measurements": [
//       {"name": "...", "measured": <num>, "paper_value": <num>|null,
//        "unit": "..."},
//       ...
//     ],
//     "metrics": {
//       "counters":   { "<name>": <u64>, ... },
//       "gauges":     { "<name>": <num>, ... },
//       "histograms": { "<name>": {"count": .., "sum": .., "min": ..,
//                                  "max": .., "p50": .., "p99": ..}, ... }
//     },
//     "checks": [ {"ok": true|false, "what": "..."}, ... ],
//     "errors": [ {"code": "<stable-code>", "message": "..."}, ... ],
//     "self_check": true|false
//   }
//
// Versioning contract: additive changes (new optional keys) keep version 1;
// renames/removals bump it. `self_check` is the machine gate — it is the
// AND of every check() recorded, scripts/verify.sh fails on false.
#pragma once

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/error.hpp"
#include "obs/metrics.hpp"

namespace burst::obs {

class RunReport {
 public:
  static constexpr const char* kSchema = "burst.run_report";
  static constexpr int kVersion = 1;

  /// `kind` is the producing surface: "bench", "training" or "serving".
  RunReport(std::string kind, std::string name)
      : kind_(std::move(kind)), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- config ---------------------------------------------------------------
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, const char* value);
  void config(const std::string& key, double value);
  void config(const std::string& key, std::int64_t value);
  void config(const std::string& key, int value);
  void config(const std::string& key, bool value);

  // --- measurements ---------------------------------------------------------
  /// A named measured quantity, optionally paired with the paper's reported
  /// value for side-by-side comparison. Pass NaN (the default) for
  /// `paper_value` when the paper states no number — serialized as null.
  void measurement(const std::string& name, double measured,
                   double paper_value = kNoPaperValue,
                   const std::string& unit = "");
  static constexpr double kNoPaperValue =
      std::numeric_limits<double>::quiet_NaN();

  // --- registry dump --------------------------------------------------------
  /// Snapshots every instrument of `reg` into the metrics section
  /// (overwrites a previous snapshot).
  void attach_registry(const Registry& reg);

  // --- checks & errors ------------------------------------------------------
  /// Records a named invariant; self_check() is the AND of all of them.
  void check(bool ok, const std::string& what);
  bool self_check() const { return self_check_; }

  void add_error(const std::string& code, const std::string& message);
  /// Uniform failure serialization: stable burst::Error code when the
  /// exception carries one, "unknown" otherwise. Also fails self_check.
  void add_error(const std::exception& e);

  // --- output ---------------------------------------------------------------
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  struct Measurement {
    std::string name;
    double measured = 0.0;
    double paper_value = kNoPaperValue;
    std::string unit;
  };
  struct Check {
    bool ok = true;
    std::string what;
  };
  struct ErrorEntry {
    std::string code;
    std::string message;
  };

  std::string kind_;
  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-rendered
  std::vector<Measurement> measurements_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, HistogramSummary>> histograms_;
  std::vector<Check> checks_;
  std::vector<ErrorEntry> errors_;
  bool self_check_ = true;
};

/// Peak resident set size of this process so far, in MB (getrusage). The
/// host-memory budget that tests and benches report and check.
double host_peak_rss_mb();

/// JSON string escaping shared with everything that renders report text.
std::string json_escape(const std::string& s);

/// Renders a finite double as a JSON number, NaN/inf as null.
std::string json_number(double v);

}  // namespace burst::obs
