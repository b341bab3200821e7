// Load generation against the investigation server: a closed loop (a
// fixed number of outstanding requests) and an open loop (requests due at
// a fixed offered rate whatever the completions, latency timed from each
// request's due time). Both run on the calling thread alone.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "bench.h"
#include "system/investigation_server.h"

namespace perfbench {

struct Key {
  viewmap::geo::Rect site{};
  viewmap::TimeSec unit = 0;
  std::uint32_t id = 0;  ///< index in the workload's key table
};

/// Per-layer figures copied from the program's own investigation traces
/// (InvestigationReport::trace spans) and verdicts. Filled in traced runs.
struct InvestigationLayers {
  Samples member_select_ms, candidate_grid_ms, edge_build_ms, csr_build_ms, build_ms;
  Samples trust_rank_ms, algorithm1_ms, verify_ms;
  Samples members, edges_per_member, iterations, legit_frac;
  std::uint64_t sybil_accepted = 0;
  Samples hit_us;      ///< total trace time of cache-served requests
  Samples snapshot_us;  ///< DbSnapshot acquisition, sampled by the client
  Samples query_us;     ///< DbSnapshot::query over a served key, sampled
};

struct LoadConfig {
  bool open = false;
  double rate_per_s = 0.0;      ///< open loop: offered rate
  std::size_t outstanding = 8;  ///< closed loop: requests kept in flight
  double seconds = 1.0;
};

struct LoadResult {
  PhaseCount count;
  Samples latency_ms;   ///< completion − due (open) or − send (closed)
  Samples lateness_ms;  ///< send − due, open loop only
  Samples service_ms;   ///< trace.total_us: time inside investigate()
  Samples wait_ms;      ///< latency − service: queueing, pinning, hand-off
  std::uint64_t hits = 0;
  double elapsed_s = 0.0;  ///< first send to last completion
  double client_cpu_s = 0.0;   ///< CPU time of the load thread itself
  double process_cpu_s = 0.0;  ///< CPU time of the whole process
  /// Completion rate over each run of consecutive completions inside the
  /// sending period (16, or a 16th of the slice's completions if more);
  /// their median is the phase's rate, which a short host stall cannot
  /// move.
  Samples rate_samples;
  /// Open loop: the median and 99th percentile of each slice (one
  /// run_load call).
  Samples slice_p50_ms, slice_p99_ms;
  [[nodiscard]] double rate() const {
    if (!rate_samples.empty()) return rate_samples.median();
    return elapsed_s > 0.0 ? static_cast<double>(count.succeeded) / elapsed_s : 0.0;
  }
  void merge(const LoadResult& o) {
    count += o.count;
    latency_ms.append(o.latency_ms);
    lateness_ms.append(o.lateness_ms);
    service_ms.append(o.service_ms);
    wait_ms.append(o.wait_ms);
    hits += o.hits;
    elapsed_s += o.elapsed_s;
    client_cpu_s += o.client_cpu_s;
    process_cpu_s += o.process_cpu_s;
    rate_samples.append(o.rate_samples);
    slice_p50_ms.append(o.slice_p50_ms);
    slice_p99_ms.append(o.slice_p99_ms);
  }
};

/// Called on the load thread for every served report.
using OnServed = std::function<void(const Key&, const viewmap::sys::InvestigationReport&)>;

/// Runs one slice of load. When `layers` is set (traced runs), copies each
/// report's spans and verdict into it and samples the index read path.
LoadResult run_load(viewmap::sys::ViewMapService& service, const LoadConfig& cfg,
                    const std::function<Key()>& next_key, const OnServed& on_served,
                    const std::unordered_set<viewmap::Id16, viewmap::Id16Hasher>& sybils,
                    InvestigationLayers* layers);

}  // namespace perfbench
