// Shared plumbing of the service benchmark: options, timing, sample
// statistics, a minimal JSON writer, report fingerprints and the result
// every workload fills in. Nothing here touches the program's internals;
// the benchmark drives the viewmap library only through its public API.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "system/service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny input sizes for the benchmark's own tests; never used for
  /// numbers that are compared between commits.
  bool smoke = false;
  /// Scratch directory (inside the checkout) for segment stores.
  std::string work_dir = ".bench_work";
};

/// A growable sample set with the order statistics the results report.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t count() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double max() const {
    return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
  }

 private:
  std::vector<double> v_;
};

/// `s` as a JSON string literal.
std::string json_quote(const std::string& s);

/// Insertion-ordered JSON object; values are pre-rendered JSON text.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::uint64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& obj(const std::string& key, const Json& v);
  Json& raw(const std::string& key, std::string text);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Request/payload accounting of one phase (see README "Result layout").
struct PhaseCount {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t rejected = 0;
  PhaseCount& operator+=(const PhaseCount& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    failed += o.failed;
    expired += o.expired;
    rejected += o.rejected;
    return *this;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::string> violations;  ///< failed correctness oracles
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  Json detail;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Order-sensitive 64-bit fingerprint of everything an investigation
/// report concludes: members (by profile object), trust flags, CSR edges,
/// verdict sets, bit-cast TrustRank scores and solicitations. The trace is
/// excluded because it records the serving path, not the result. Only
/// reports built over the same live shards are comparable.
std::uint64_t report_fingerprint(const viewmap::sys::InvestigationReport& r);

/// The same fingerprint for a result computed directly with the
/// ViewmapBuilder and Verifier modules at their default settings — what a
/// service with its result cache off would serve for (site, unit).
std::uint64_t fresh_fingerprint(const viewmap::sys::DbSnapshot& snap,
                                const viewmap::geo::Rect& site, viewmap::TimeSec unit);

/// Whether two reports conclude exactly the same (bitwise; trace
/// excluded), for reports over the same live shards. Cheaper than two
/// fingerprints: a load thread checks every cache hit with it.
bool same_result(const viewmap::sys::InvestigationReport& a,
                 const viewmap::sys::InvestigationReport& b);

/// Resident set size of this process in bytes, after returning freed heap
/// to the system so that deltas measure live data.
std::uint64_t rss_bytes();

/// 64-bit word-wise FNV-style digest accumulator for input identity.
class Digest {
 public:
  void bytes(const std::uint8_t* p, std::size_t n);
  void u64(std::uint64_t v);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

using Payload = std::vector<std::uint8_t>;

/// One workload: fills `out` from `opt`. Throws only on harness bugs;
/// correctness problems go to Result::violations.
void run_downtown_cold(const Options& opt, Result& out);
void run_hot_incident_live(const Options& opt, Result& out);
void run_upload_checkpoint_restart(const Options& opt, Result& out);

/// Child-process mode: restores the newest checkpoint in `dir` into a
/// fresh service and prints "seconds rss_delta vps read_us validate_us
/// parse_us adopt_us threads digest" on one line.
int restore_probe_main(const std::string& dir);

}  // namespace perfbench
