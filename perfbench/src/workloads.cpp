// The three service workloads. Each one runs the whole service life
// cycle the end-to-end metrics describe (set-up ingest, serving,
// checkpointing, cold restore), weighted toward the layers it exists to
// stress; see README.md for why each workload looks the way it does.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "attack/fake_vp.h"
#include "bench.h"
#include "city.h"
#include "index/ingest_engine.h"
#include "load.h"
#include "obs/metrics.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"
#include "system/service.h"
#include "system/viewmap_graph.h"

namespace perfbench {

namespace {

using viewmap::Rng;
using viewmap::TimeSec;
using viewmap::store::SegmentStore;
using viewmap::sys::InvestigationReport;
using viewmap::sys::ViewMapService;
using SybilSet = std::unordered_set<viewmap::Id16, viewmap::Id16Hasher>;

constexpr TimeSec kMinute = viewmap::kUnitTimeSec;
constexpr TimeSec kHour = 3600;
constexpr TimeSec kDay = 24 * kHour;
/// Base of the synthetic calendar: far enough from 0 that a full
/// retention window fits before it.
constexpr TimeSec kEpoch = 400 * kDay;
constexpr int kSetupReps = 5;
/// Cold restores per round: restore_s and rss_bytes_per_vp are medians.
constexpr int kRestoresPerRound = 2;
/// Closed loop: requests kept in flight, enough that the server's workers
/// rarely wait for the client.
constexpr std::size_t kOutstanding = 32;

TimeSec retention_window() { return viewmap::index::RetentionConfig{}.window_sec; }

// ── ingest ──────────────────────────────────────────────────────────────

struct IngestTally {
  Samples pass_vps;   ///< accepted / (submit + ingest) time, per pass
  Samples pass_ms;    ///< ingest_uploads() wall time per pass
  Samples submit_us;  ///< per-payload submit(), traced runs only
  std::size_t pending_peak = 0;
  double busy_s = 0.0;  ///< time inside submit() + ingest_uploads()
  std::uint64_t accepted = 0;
  [[nodiscard]] double vps() const { return pass_vps.median(); }
  void absorb(const IngestTally& o) {
    pass_vps.append(o.pass_vps);
    pass_ms.append(o.pass_ms);
    submit_us.append(o.submit_us);
    pending_peak = std::max(pending_peak, o.pending_peak);
    busy_s += o.busy_s;
    accepted += o.accepted;
  }
};

/// Uploads `payloads` through the anonymous channel and drains them into
/// the database, exactly as clients and the ingest loop would.
std::size_t upload(ViewMapService& svc, std::vector<Payload> payloads, bool traced,
                   IngestTally& t) {
  const Clock::time_point a = Clock::now();
  for (auto& p : payloads) {
    if (traced) {
      const Clock::time_point s = Clock::now();
      svc.upload_channel().submit(std::move(p));
      t.submit_us.add(us_between(s, Clock::now()));
    } else {
      svc.upload_channel().submit(std::move(p));
    }
  }
  t.pending_peak = std::max(t.pending_peak, svc.upload_channel().pending());
  const Clock::time_point b = Clock::now();
  const std::size_t accepted = svc.ingest_uploads();
  const Clock::time_point c = Clock::now();
  t.pass_ms.add(ms_between(b, c));
  t.pass_vps.add(static_cast<double>(accepted) / (ms_between(a, c) / 1000.0));
  t.busy_s += ms_between(a, c) / 1000.0;
  t.accepted += accepted;
  return accepted;
}

viewmap::index::IngestStats minus(const viewmap::index::IngestStats& a,
                                  const viewmap::index::IngestStats& b) {
  viewmap::index::IngestStats d;
  d.accepted = a.accepted - b.accepted;
  d.rejected_malformed = a.rejected_malformed - b.rejected_malformed;
  d.rejected_untimely = a.rejected_untimely - b.rejected_untimely;
  d.rejected_duplicate = a.rejected_duplicate - b.rejected_duplicate;
  d.evicted = a.evicted - b.evicted;
  d.batches = a.batches - b.batches;
  return d;
}

/// Micro-timings of the VP layer on a sample of the workload's payloads:
/// parse, structural screen, and the first (memoizing) probe-table build.
struct VpSample {
  Samples parse_us, screen_us, bloom_probes_us;
};

void time_vp_layer(const std::vector<Payload>& sample, VpSample& out) {
  const viewmap::vp::VpUploadPolicy policy;
  for (const auto& p : sample) {
    const Clock::time_point a = Clock::now();
    auto profile = viewmap::vp::ViewProfile::parse(p);
    const Clock::time_point b = Clock::now();
    const bool ok = policy.well_formed(profile);
    const Clock::time_point c = Clock::now();
    const auto& probes = profile.bloom_probes();
    const Clock::time_point d = Clock::now();
    out.parse_us.add(us_between(a, b));
    out.screen_us.add(us_between(b, c));
    out.bloom_probes_us.add(us_between(c, d));
    if (!ok || probes.at.empty()) throw std::logic_error("vp sample: malformed payload");
  }
}

// ── persistence ─────────────────────────────────────────────────────────

struct StoreTally {
  Samples checkpoint_ms;  ///< incremental checkpoints only
  Samples full_checkpoint_ms;
  std::uint64_t bytes_written = 0, churned = 0;
  std::uint64_t segments_written = 0, segments_reused = 0;
  std::uint64_t segment_bytes_total = 0;
  std::size_t vps_held = 0;  ///< database size at the newest checkpoint
  Samples restore_s, read_ms, validate_ms, parse_ms, adopt_ms;
  Samples rss_per_vp;  ///< RSS growth of a cold restore per VP restored
  unsigned restore_threads = 0;
};

void checkpoint(ViewMapService& svc, SegmentStore& store, std::uint64_t churned, bool full,
                StoreTally& t) {
  const std::size_t held = svc.database().size();
  const Clock::time_point a = Clock::now();
  const viewmap::store::CheckpointStats st = svc.checkpoint(store);
  const double ms = ms_between(a, Clock::now());
  t.segment_bytes_total = st.segment_bytes_total;
  t.vps_held = held;
  if (full) {
    t.full_checkpoint_ms.add(ms);
    return;
  }
  t.checkpoint_ms.add(ms);
  t.bytes_written += st.bytes_written;
  t.churned += churned;
  t.segments_written += st.segments_written;
  t.segments_reused += st.segments_reused;
}

/// Content identity of a database: its (unit-time, shard digest) list.
std::string digest_of(const std::vector<viewmap::index::DbSnapshot::ShardDigest>& shards) {
  Digest d;
  for (const auto& sd : shards) {
    d.u64(static_cast<std::uint64_t>(sd.unit_time));
    d.bytes(sd.digest.bytes.data(), sd.digest.bytes.size());
  }
  return d.hex();
}

/// Runs this executable with `args`, returns its standard output, and
/// waits for it to end. Throws when it cannot start or fails.
std::string run_child(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> owned = args;
  for (auto& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      text.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("could not start the restore probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("restore probe failed");
  return text;
}

/// Cold restores: `reps` times, a fresh process restores the newest
/// checkpoint in `dir` into a fresh service (see restore_probe_main), so
/// restore time and RSS growth never depend on this process's heap. Every
/// restored database must carry `want`, the checkpointed content digest.
void restore_cold(const std::string& dir, const std::string& want, int reps, StoreTally& t,
                  Result& out) {
  for (int r = 0; r < reps; ++r) {
    std::istringstream in(run_child({"--restore-probe", dir}));
    double seconds = 0.0, rss_delta = 0.0, vps = 0.0, read_us = 0.0, validate_us = 0.0,
           parse_us = 0.0, adopt_us = 0.0;
    unsigned threads = 0;
    std::string got;
    in >> seconds >> rss_delta >> vps >> read_us >> validate_us >> parse_us >> adopt_us >>
        threads >> got;
    if (!in) throw std::runtime_error("unreadable restore probe output");
    t.restore_s.add(seconds);
    t.rss_per_vp.add(rss_delta / std::max(vps, 1.0));
    t.read_ms.add(read_us / 1000.0);
    t.validate_ms.add(validate_us / 1000.0);
    t.parse_ms.add(parse_us / 1000.0);
    t.adopt_ms.add(adopt_us / 1000.0);
    t.restore_threads = threads;
    out.check(got == want, "restored shard digests differ from the checkpointed snapshot");
  }
}

}  // namespace

int restore_probe_main(const std::string& dir) {
  const SegmentStore store(dir);
  ViewMapService svc;
  const std::uint64_t rss0 = rss_bytes();
  const Clock::time_point a = Clock::now();
  const viewmap::store::RecoveryStats st = svc.restore_from(store);
  const double seconds = ms_between(a, Clock::now()) / 1000.0;
  const double rss_delta = static_cast<double>(rss_bytes()) - static_cast<double>(rss0);
  std::printf("%.9f %.0f %zu %llu %llu %llu %llu %u %s\n", seconds, rss_delta,
              svc.database().size(), static_cast<unsigned long long>(st.read_us),
              static_cast<unsigned long long>(st.validate_us),
              static_cast<unsigned long long>(st.parse_us),
              static_cast<unsigned long long>(st.adopt_us), st.threads_used,
              digest_of(svc.database().snapshot().shard_digests()).c_str());
  return 0;
}

namespace {

std::string fresh_store_dir(const Options& opt, const std::string& tag) {
  const std::string dir = opt.work_dir + "/" + opt.workload + "-" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ── result assembly ─────────────────────────────────────────────────────

Json phase_json(const std::string& name, const LoadResult& r) {
  Json j;
  j.str("phase", name)
      .integer("sent", r.count.sent)
      .integer("succeeded", r.count.succeeded)
      .integer("failed", r.count.failed)
      .integer("expired", r.count.expired)
      .integer("rejected", r.count.rejected)
      .integer("cache_hits", r.hits)
      .num("elapsed_s", r.elapsed_s)
      .num("rate_per_s", r.rate())
      .num("rate_p10_per_s", r.rate_samples.quantile(0.10))
      .num("rate_p90_per_s", r.rate_samples.quantile(0.90))
      .num("mean_rate_per_s",
           r.elapsed_s > 0.0 ? static_cast<double>(r.count.succeeded) / r.elapsed_s : 0.0)
      .num("client_cpu_frac", r.elapsed_s > 0.0 ? r.client_cpu_s / r.elapsed_s : 0.0)
      .num("process_cpus", r.elapsed_s > 0.0 ? r.process_cpu_s / r.elapsed_s : 0.0)
      .num("latency_p50_ms", r.latency_ms.median())
      .num("latency_p90_ms", r.latency_ms.quantile(0.90))
      .num("latency_p99_ms", r.latency_ms.quantile(0.99))
      .integer("latency_samples", r.latency_ms.count());
  if (!r.slice_p99_ms.empty())
    j.num("slice_p50_median_ms", r.slice_p50_ms.median())
        .num("slice_p99_median_ms", r.slice_p99_ms.median())
        .integer("slices", r.slice_p99_ms.count())
        .num("service_p99_ms", r.service_ms.quantile(0.99))
        .num("wait_p99_ms", r.wait_ms.quantile(0.99));
  if (!r.lateness_ms.empty())
    j.num("lateness_p50_ms", r.lateness_ms.median())
        .num("lateness_p99_ms", r.lateness_ms.quantile(0.99));
  return j;
}

Json payload_json(const viewmap::index::IngestStats& got, const PassTruth& truth) {
  Json j;
  j.integer("valid_sent", truth.valid)
      .integer("accepted", got.accepted)
      .integer("rejected_malformed", got.rejected_malformed)
      .integer("rejected_untimely", got.rejected_untimely)
      .integer("rejected_duplicate", got.rejected_duplicate)
      .integer("expected_malformed", truth.malformed)
      .integer("expected_untimely", truth.untimely)
      .integer("expected_duplicate", truth.duplicate)
      .integer("evicted", got.evicted);
  return j;
}

void check_truth(Result& out, const viewmap::index::IngestStats& got, const PassTruth& truth,
                 std::uint64_t expected_evicted) {
  out.check(got.accepted == truth.valid, "accepted uploads differ from the generated valid count");
  out.check(got.rejected_malformed == truth.malformed, "malformed rejections differ from truth");
  out.check(got.rejected_untimely == truth.untimely, "untimely rejections differ from truth");
  out.check(got.rejected_duplicate == truth.duplicate, "duplicate rejections differ from truth");
  out.check(got.evicted == expected_evicted, "evicted VPs differ from the retention window");
}

void add_truth(PassTruth& sum, const PassTruth& t) {
  sum.valid += t.valid;
  sum.malformed += t.malformed;
  sum.untimely += t.untimely;
  sum.duplicate += t.duplicate;
}

/// End-to-end metrics every workload reports (BENCHMARK.json end_to_end).
/// Open-loop latency is reported in the detail line only: see README.md,
/// "Why no latency metric".
void put_end_to_end(Result& out, const LoadResult& closed, const IngestTally& ingest,
                    const StoreTally& store, double setup_s) {
  out.put("investigate_rps", closed.rate(), "1/s");
  out.put("ingest_vps", ingest.vps(), "1/s");
  out.put("checkpoint_ms", store.checkpoint_ms.median(), "ms");
  out.put("restore_s", store.restore_s.median(), "s");
  out.put("rss_bytes_per_vp", store.rss_per_vp.median(), "bytes");
  out.put("store_bytes_per_vp",
          store.vps_held == 0 ? 0.0
                              : static_cast<double>(store.segment_bytes_total) /
                                    static_cast<double>(store.vps_held),
          "bytes");
  out.put("setup_s", setup_s, "s");
}

/// Server-side counters read back from the service's metrics registry.
struct ServerCounters {
  std::uint64_t busy_us = 0, idle_us = 0, batches = 0, snapshots = 0;
  static ServerCounters read(ViewMapService& svc) {
    auto& reg = svc.metrics();
    return {reg.counter("viewmap_server_busy_us_total").value(),
            reg.counter("viewmap_server_idle_us_total").value(),
            reg.counter("viewmap_server_batches_total").value(),
            reg.counter("viewmap_server_snapshots_total").value()};
  }
};

/// Per-layer metrics (BENCHMARK.json per_layer). Layers a workload leaves
/// idle report 0.
void put_layers(Result& out, const VpSample& vp, const IngestTally& ingest,
                const viewmap::index::IngestStats& ingest_delta,
                const InvestigationLayers& inv, const LoadResult& served,
                const ServerCounters& s0, const ServerCounters& s1, std::size_t peak_queue,
                const viewmap::sys::ResultCache::Stats& c0,
                const viewmap::sys::ResultCache::Stats& c1, const StoreTally& store,
                double overhead_frac) {
  out.put("vp.parse_us", vp.parse_us.median(), "us");
  out.put("vp.screen_us", vp.screen_us.median(), "us");
  out.put("vp.bloom_probes_us", vp.bloom_probes_us.median(), "us");
  out.put("anonet.submit_us", ingest.submit_us.median(), "us");
  out.put("anonet.pending_peak", static_cast<double>(ingest.pending_peak), "count");
  out.put("index.ingest_pass_ms", ingest.pass_ms.median(), "ms");
  out.put("index.rejected.malformed", static_cast<double>(ingest_delta.rejected_malformed), "count");
  out.put("index.rejected.untimely", static_cast<double>(ingest_delta.rejected_untimely), "count");
  out.put("index.rejected.duplicate", static_cast<double>(ingest_delta.rejected_duplicate), "count");
  out.put("index.evicted", static_cast<double>(ingest_delta.evicted), "count");
  out.put("index.snapshot_us", inv.snapshot_us.median(), "us");
  out.put("index.query_us", inv.query_us.median(), "us");
  out.put("system.build.ms", inv.build_ms.median(), "ms");
  out.put("system.build.member_select_ms", inv.member_select_ms.median(), "ms");
  out.put("system.build.candidate_grid_ms", inv.candidate_grid_ms.median(), "ms");
  out.put("system.build.edge_build_ms", inv.edge_build_ms.median(), "ms");
  out.put("system.build.csr_build_ms", inv.csr_build_ms.median(), "ms");
  out.put("system.build.members", inv.members.median(), "count");
  out.put("system.build.edges_per_member", inv.edges_per_member.median(), "count");
  out.put("system.verify.ms", inv.verify_ms.median(), "ms");
  out.put("system.verify.trust_rank_ms", inv.trust_rank_ms.median(), "ms");
  out.put("system.verify.iterations", inv.iterations.median(), "count");
  out.put("system.verify.algorithm1_ms", inv.algorithm1_ms.median(), "ms");
  out.put("system.verify.legit_frac", inv.legit_frac.median(), "frac");
  out.put("system.verify.sybil_accepted", static_cast<double>(inv.sybil_accepted), "count");
  const double lookups = static_cast<double>((c1.hits - c0.hits) + (c1.misses - c0.misses));
  out.put("system.cache.hit_rate",
          lookups > 0.0 ? static_cast<double>(c1.hits - c0.hits) / lookups : 0.0, "frac");
  out.put("system.cache.hit_us", inv.hit_us.median(), "us");
  out.put("system.cache.evictions", static_cast<double>(c1.evictions - c0.evictions), "count");
  out.put("system.cache.resident_bytes", static_cast<double>(c1.resident_bytes), "bytes");
  out.put("system.server.wait_ms", served.wait_ms.median(), "ms");
  out.put("system.server.service_ms", served.service_ms.median(), "ms");
  const double busy = static_cast<double>(s1.busy_us - s0.busy_us);
  const double idle = static_cast<double>(s1.idle_us - s0.idle_us);
  out.put("system.server.busy_frac", busy + idle > 0.0 ? busy / (busy + idle) : 0.0, "frac");
  const double batches = static_cast<double>(s1.batches - s0.batches);
  out.put("system.server.snapshot_reuse_frac",
          batches > 0.0 ? 1.0 - static_cast<double>(s1.snapshots - s0.snapshots) / batches : 0.0,
          "frac");
  out.put("system.server.peak_queue", static_cast<double>(peak_queue), "count");
  out.put("store.bytes_written_per_churned_vp",
          store.churned == 0 ? 0.0
                             : static_cast<double>(store.bytes_written) /
                                   static_cast<double>(store.churned),
          "bytes");
  out.put("store.segments_written", static_cast<double>(store.segments_written), "count");
  out.put("store.segments_reused", static_cast<double>(store.segments_reused), "count");
  out.put("store.recover_read_ms", store.read_ms.median(), "ms");
  out.put("store.recover_validate_ms", store.validate_ms.median(), "ms");
  out.put("store.recover_parse_ms", store.parse_ms.median(), "ms");
  out.put("store.recover_adopt_ms", store.adopt_ms.median(), "ms");
  out.put("trace.overhead_frac", overhead_frac, "frac");
}

/// Share of the open loop's median latency that the copied build and
/// verify phases plus the server wait account for (traced runs).
double accounted_frac(const InvestigationLayers& inv, const LoadResult& open) {
  const double p50 = open.latency_ms.median();
  if (p50 <= 0.0 || inv.build_ms.empty()) return 0.0;
  return (inv.build_ms.median() + inv.verify_ms.median() + open.wait_ms.median()) / p50;
}

void add_requests(Result& out, const LoadResult& r) {
  out.attempted += r.count.sent;
  out.failed += r.count.failed + r.count.expired + r.count.rejected;
}

void add_uploads(Result& out, std::uint64_t valid_sent, std::uint64_t accepted) {
  out.attempted += valid_sent;
  if (accepted < valid_sent) out.failed += valid_sent - accepted;
}

Json thread_json(std::size_t server_workers, const StoreTally& store) {
  viewmap::index::VpTimeline scratch;
  const viewmap::index::IngestEngine engine(scratch, {}, {});
  Json j;
  j.integer("server_workers", server_workers)
      .integer("build_threads", viewmap::sys::ViewmapBuilder::resolved_build_threads(
                                    viewmap::sys::ViewmapConfig{}.build_threads))
      .integer("ingest_threads", engine.worker_count())
      .integer("restore_threads", store.restore_threads)
      .integer("load_threads", 1);
  return j;
}

/// The serving phases, run as rounds: each round is one closed-loop
/// slice and one open-loop slice, in an order that flips from round to
/// round and with the seed, so both loops sample the whole run and
/// neither order is favoured. Workloads put their other timed steps
/// (checkpoints, restores, ingest passes) between rounds, so every metric
/// samples the whole run as well. In traced runs every other closed slice
/// is traced, and the rate difference between traced and untraced closed
/// slices is the tracing overhead.
class Serving {
 public:
  Serving(ViewMapService& svc, const Options& opt, int rounds, double closed_s, double open_s,
          double rate, std::function<Key()> next_key, OnServed on_served,
          const SybilSet& sybils, InvestigationLayers& layers)
      : workers(svc.server()->worker_count()), svc_(svc), opt_(opt), rounds_(rounds),
        closed_s_(closed_s), open_s_(open_s), rate_(rate), next_key_(std::move(next_key)),
        on_served_(std::move(on_served)), sybils_(sybils), layers_(layers) {}

  void round(int i) {
    LoadConfig closed_cfg;
    closed_cfg.outstanding = kOutstanding;
    closed_cfg.seconds = closed_s_ / rounds_;
    LoadConfig open_cfg;
    open_cfg.open = true;
    open_cfg.rate_per_s = rate_;
    open_cfg.seconds = open_s_ / rounds_;
    const bool traced_slice = opt_.trace && (i + opt_.seed) % 2 == 1;
    const auto run_closed = [&] {
      if (traced_slice)
        traced_half.merge(run_load(svc_, closed_cfg, next_key_, on_served_, sybils_, &scratch_));
      else
        closed.merge(run_load(svc_, closed_cfg, next_key_, on_served_, sybils_, nullptr));
    };
    const auto run_open = [&] {
      open.merge(run_load(svc_, open_cfg, open_key ? open_key : next_key_, on_served_, sybils_,
                          opt_.trace ? &layers_ : nullptr));
    };
    if ((i + opt_.seed) % 2 == 0) {
      run_closed();
      run_open();
    } else {
      run_open();
      run_closed();
    }
  }

  [[nodiscard]] double overhead_frac() const {
    return opt_.trace && closed.rate() > 0.0 ? 1.0 - traced_half.rate() / closed.rate() : 0.0;
  }

  LoadResult closed, open, traced_half;
  const std::size_t workers;  ///< the server's resolved worker count
  /// The open loop's keys, where they differ from the closed loop's.
  std::function<Key()> open_key;

 private:
  ViewMapService& svc_;
  const Options& opt_;
  const int rounds_;
  const double closed_s_, open_s_, rate_;
  const std::function<Key()> next_key_;
  const OnServed on_served_;
  const SybilSet& sybils_;
  InvestigationLayers& layers_;
  InvestigationLayers scratch_;  ///< per-layer figures come from the open loop
};

/// Rounds for `serving_s` seconds of serving: about 3 s each, at least 2.
int rounds_for(double serving_s) {
  return std::max(2, static_cast<int>(std::lround(serving_s / 3.0)));
}

Json identity_json(const Options& opt, const Digest& inputs, std::size_t server_workers,
                   const StoreTally& store) {
  Json j;
  j.integer("seed", opt.seed)
      .num("seconds", opt.seconds)
      .boolean("trace", opt.trace)
      .boolean("smoke", opt.smoke)
      .str("input_digest", inputs.hex())
      .boolean("fsync", viewmap::store::SegmentStoreConfig{}.fsync)
      .obj("threads", thread_json(server_workers, store));
  return j;
}

// ── the downtown city shared by the two serving workloads ───────────────

CityConfig downtown(const Options& opt) {
  CityConfig c;
  if (opt.smoke) {
    c.side_m = 700.0;
    c.hotspots = 4;
  }
  return c;
}

struct City {
  std::vector<Minute> minutes;
  SybilSet sybils;
  std::vector<Payload> sample;  ///< copies of a few uploads, for vp.* timings
};

City make_city(const Options& opt, int minutes, TimeSec first_unit, std::uint64_t salt,
               Digest* digest) {
  City city;
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + salt);
  const CityConfig cfg = downtown(opt);
  for (int m = 0; m < minutes; ++m) {
    city.minutes.push_back(make_minute(first_unit + kMinute * m, cfg, rng));
    const Minute& mm = city.minutes.back();
    for (const auto& id : mm.sybil_ids) city.sybils.insert(id);
    for (std::size_t i = 0; i < mm.uploads.size() && city.sample.size() < 256; i += 61)
      city.sample.push_back(mm.uploads[i]);
    if (digest != nullptr)
      for (const auto& p : mm.uploads) digest->bytes(p.data(), p.size());
  }
  return city;
}

/// Registers the minutes' trust seeds and uploads their traffic.
void load_city(ViewMapService& svc, City& city, bool traced, IngestTally& ingest,
               PassTruth& truth) {
  for (auto& m : city.minutes) {
    (void)svc.register_trusted(*m.police);
    truth.valid += m.uploads.size();
    upload(svc, std::move(m.uploads), traced, ingest);
    m.uploads.clear();
  }
}

/// A small batch of fresh traffic in minute `unit` (persistence churn).
std::vector<Payload> churn_batch(TimeSec unit, Rng& rng) {
  CityConfig c;
  c.side_m = 900.0;
  c.hotspots = 0;
  return make_minute(unit, c, rng).uploads;
}

}  // namespace

// ── downtown_cold ────────────────────────────────────────────────────────
//
// Every request is a distinct (site, minute) key, so the result cache is
// bypassed and each investigation builds and verifies a ~1k-member
// viewmap. No live ingest while serving.

void run_downtown_cold(const Options& opt, Result& out) {
  const int minutes = opt.smoke ? 2 : 6;
  const double open_rate = opt.smoke ? 20.0 : 16.0;
  const std::size_t warmup = opt.smoke ? 8 : 32;

  Digest inputs;
  IngestTally ingest;
  PassTruth truth;
  Samples setup_s;
  std::unique_ptr<ViewMapService> svc;
  City city;
  VpSample vp;

  // Cold keys: a jittered site around one of the minute's hotspots.
  const auto key_stream = [&](std::uint64_t salt) {
    auto rng = std::make_shared<Rng>(opt.seed * 1000003 + salt);
    auto next_id = std::make_shared<std::uint32_t>(0);
    return [&city, minutes, rng, next_id]() {
      const Minute& m = city.minutes[rng->index(static_cast<std::size_t>(minutes))];
      const auto c = m.hotspots[rng->index(m.hotspots.size())];
      return Key{site_at({c.x + rng->uniform(-40.0, 40.0), c.y + rng->uniform(-40.0, 40.0)}, 200.0),
                 m.unit, (*next_id)++};
    };
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    inputs = Digest{};
    city = make_city(opt, minutes, kEpoch, 1, &inputs);
    svc = std::make_unique<ViewMapService>();
    IngestTally rep_ingest;
    PassTruth rep_truth;
    load_city(*svc, city, opt.trace, rep_ingest, rep_truth);
    svc->start_server();
    {
      // Warm-up: a fixed count of cold requests from the same key
      // distribution (a separate stream, so timed keys stay unseen).
      auto keys = key_stream(2);
      std::size_t left = warmup;
      std::vector<std::future<viewmap::sys::InvestigationServer::Reports>> futs;
      while (left-- > 0) {
        const Key k = keys();
        futs.push_back(svc->server()->submit(k.site, k.unit));
      }
      for (auto& f : futs) (void)f.get();
    }
    setup_s.add(ms_between(t0, Clock::now()) / 1000.0);
    ingest.absorb(rep_ingest);
    add_uploads(out, rep_truth.valid, rep_ingest.accepted);
    truth = rep_truth;
  }
  if (opt.trace) time_vp_layer(city.sample, vp);
  const viewmap::index::IngestStats setup_delta = svc->ingest_totals();

  // Rounds of serving, each followed by a churn upload into a new minute,
  // an incremental checkpoint and a cold restore. A fixed sample of served
  // keys is kept for the oracles.
  std::vector<std::pair<Key, InvestigationReport>> kept;
  const OnServed keep = [&kept](const Key& k, const InvestigationReport& r) {
    if (k.id % 97 == 0 && kept.size() < 4) kept.emplace_back(k, r);
  };
  InvestigationLayers layers;
  StoreTally store;
  const std::string dir = fresh_store_dir(opt, "store");
  auto seg = std::make_unique<SegmentStore>(dir);
  checkpoint(*svc, *seg, 0, true, store);
  Rng churn(opt.seed + 99);
  const ServerCounters s0 = ServerCounters::read(*svc);
  const auto c0 = svc->result_cache().stats();
  const int rounds = rounds_for(opt.seconds * 0.9);
  Serving s(*svc, opt, rounds, opt.seconds * 0.35, opt.seconds * 0.55, open_rate, key_stream(3),
            keep, city.sybils, layers);
  for (int i = 0; i < rounds; ++i) {
    s.round(i);
    // The churn goes in as two uploads, each sealed by its own checkpoint.
    auto batch = churn_batch(kEpoch + kMinute * (minutes + i), churn);
    std::vector<Payload> second(std::make_move_iterator(batch.begin() + batch.size() / 2),
                                std::make_move_iterator(batch.end()));
    batch.resize(batch.size() / 2);
    for (auto* part : {&batch, &second}) {
      IngestTally t;
      const std::size_t valid = part->size();
      const std::size_t accepted = upload(*svc, std::move(*part), false, t);
      add_uploads(out, valid, accepted);
      checkpoint(*svc, *seg, accepted, false, store);
    }
    restore_cold(dir, digest_of(svc->database().snapshot().shard_digests()), kRestoresPerRound,
                 store, out);
  }
  const ServerCounters s1 = ServerCounters::read(*svc);
  const auto c1 = svc->result_cache().stats();
  const std::size_t peak_queue = svc->server()->stats().peak_queue;
  add_requests(out, s.closed);
  add_requests(out, s.open);
  add_requests(out, s.traced_half);
  seg.reset();
  std::filesystem::remove_all(dir);

  // Oracles: the served edge set equals the naive reference builder's,
  // and the verdict equals a cache-off build of the same key.
  out.check(!kept.empty(), "no served key was sampled for the oracles");
  {
    const auto snap = svc->database().snapshot();
    const viewmap::sys::ViewmapBuilder builder;
    for (const auto& [k, r] : kept) {
      const auto& m = r.viewmap;
      std::vector<const viewmap::vp::ViewProfile*> members;
      std::vector<bool> trusted;
      for (std::size_t i = 0; i < m.size(); ++i) {
        members.push_back(&m.member(i));
        trusted.push_back(m.is_trusted(i));
      }
      const auto ref =
          builder.build_from_members_reference(members, trusted, m.unit_time(), m.coverage());
      const bool same_edges =
          std::equal(ref.graph().offsets().begin(), ref.graph().offsets().end(),
                     m.graph().offsets().begin(), m.graph().offsets().end()) &&
          std::equal(ref.graph().edges().begin(), ref.graph().edges().end(),
                     m.graph().edges().begin(), m.graph().edges().end());
      out.check(same_edges, "served edge set differs from the reference builder");
      out.check(fresh_fingerprint(snap, k.site, k.unit) == report_fingerprint(r),
                "served verdict differs from a cache-off build");
    }
  }
  kept.clear();

  check_truth(out, setup_delta, truth, 0);

  if (opt.trace)
    put_layers(out, vp, ingest, setup_delta, layers, s.open, s0, s1, peak_queue, c0, c1, store,
               s.overhead_frac());
  else
    put_end_to_end(out, s.closed, ingest, store, setup_s.median());

  Json phases;
  phases.obj("closed", phase_json("closed", s.closed)).obj("open", phase_json("open", s.open));
  if (opt.trace) phases.obj("closed_traced", phase_json("closed_traced", s.traced_half));
  out.detail.obj("identity", identity_json(opt, inputs, s.workers, store))
      .obj("phases", phases)
      .obj("payloads", payload_json(setup_delta, truth))
      .num("open_rate_per_s", open_rate)
      .integer("outstanding", kOutstanding)
      .num("full_checkpoint_ms", store.full_checkpoint_ms.median())
      .num("traced_accounted_frac", accounted_frac(layers, s.open))
      .num("setup_s_min", setup_s.quantile(0.0))
      .num("setup_s_max", setup_s.max());
}

// ── hot_incident_live ───────────────────────────────────────────────────
//
// A Zipf(1.1) mix over a few hot incident keys while one writer thread
// streams uploads into the newest minutes, retention evicts the oldest
// shards, and the writer checkpoints every few passes.

void run_hot_incident_live(const Options& opt, Result& out) {
  const int minutes = opt.smoke ? 2 : 4;
  const int sites_per_minute = downtown(opt).hotspots;
  const double open_rate = opt.smoke ? 400.0 : 2000.0;
  const std::size_t warmup = opt.smoke ? 64 : 400;
  const double pass_period_s = 0.5;
  const int checkpoint_every = 2;
  const std::size_t max_passes = opt.smoke ? 100 : 480;  // far inside the window
  // Enough pre-generated passes for the serving phases (0.9 × --seconds).
  const std::size_t planned_passes = std::min<std::size_t>(
      max_passes, static_cast<std::size_t>(std::ceil(0.95 * opt.seconds / pass_period_s)) + 4);
  std::vector<Pass> writer_passes;
  const TimeSec window = retention_window();
  const TimeSec step = kHour;
  const TimeSec hot_first = kEpoch - kMinute * minutes;
  // Old traffic at the far edge of the retention window, one shard per
  // writer pass and of a pass's size: every pass evicts about what it
  // adds, so the database (and each restore) stays the same size all run.
  const std::size_t old_shards = planned_passes + 1;

  Digest inputs;
  IngestTally setup_ingest;
  Samples setup_s;
  std::unique_ptr<ViewMapService> svc;
  City city;
  std::vector<Key> keys;
  std::vector<std::size_t> old_sizes;
  StoreTally store;
  std::unique_ptr<SegmentStore> seg;
  VpSample vp;
  PassConfig writer_cfg;
  writer_cfg.city.side_m = opt.smoke ? 150.0 : 680.0;
  writer_cfg.city.hotspots = 0;

  // Zipf(1.1) over the keys; warm-up and timed requests draw from it
  // alike. Rank r is key (r + shift) mod the key count, and the shift
  // grows by one every kRotateDraws draws. A hit re-posts the report's
  // solicited VPs one by one, and the verdicts the seed's traffic gives
  // are uneven (a site solicits 5 VPs or 150), so with a fixed ranking
  // the hit rate hinged on which sites the seed put on top. Rotating,
  // every key spends about as long at every rank in a run, and each
  // slice still sees the Zipf mix.
  constexpr std::size_t kRotateDraws = 2048;
  const std::size_t key_count = static_cast<std::size_t>(minutes * sites_per_minute);
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t k = 0; k < key_count; ++k) cdf.push_back(total += 1.0 / std::pow(k + 1.0, 1.1));
  std::size_t draws = 0;
  const auto zipf_key = [&](Rng& rng) -> const Key& {
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform(0.0, total)) - cdf.begin());
    const std::size_t shift = draws++ / kRotateDraws;
    return keys[(std::min(r, key_count - 1) + shift) % key_count];
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    seg.reset();
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    inputs = Digest{};
    city = make_city(opt, minutes, hot_first, 1, &inputs);
    Rng old_rng(opt.seed * 31 + 5);
    std::vector<Payload> old;
    old_sizes.clear();
    for (std::size_t i = 0; i < old_shards; ++i) {
      auto m = make_minute(kEpoch - window + step * static_cast<TimeSec>(i + 1), writer_cfg.city,
                           old_rng);
      old_sizes.push_back(m.uploads.size());
      for (auto& p : m.uploads) old.push_back(std::move(p));
    }
    // The writer's passes, generated up front so that generation never
    // competes with the timed phases.
    Rng wrng(opt.seed * 101 + 7);
    writer_passes.clear();
    for (std::size_t p = 0; p < planned_passes; ++p) {
      const TimeSec clock = kEpoch + step * static_cast<TimeSec>(p + 1);
      writer_passes.push_back(make_pass(viewmap::unit_start(clock), clock, writer_cfg, wrng));
      if (p < 4)
        for (const auto& u : writer_passes.back().uploads) inputs.bytes(u.data(), u.size());
    }
    svc = std::make_unique<ViewMapService>();
    IngestTally rep_ingest;
    PassTruth rep_truth;
    load_city(*svc, city, opt.trace, rep_ingest, rep_truth);
    rep_truth.valid += old.size();
    upload(*svc, std::move(old), opt.trace, rep_ingest);
    add_uploads(out, rep_truth.valid, rep_ingest.accepted);
    // The daemon seals a first full checkpoint before serving.
    seg = std::make_unique<SegmentStore>(fresh_store_dir(opt, "store"));
    StoreTally rep_store;
    checkpoint(*svc, *seg, 0, true, rep_store);
    svc->start_server();
    keys.clear();
    for (int m = 0; m < minutes; ++m)
      for (int h = 0; h < sites_per_minute; ++h)
        keys.push_back(Key{site_at(city.minutes[static_cast<std::size_t>(m)].hotspots[static_cast<std::size_t>(h)], 200.0),
                           city.minutes[static_cast<std::size_t>(m)].unit,
                           static_cast<std::uint32_t>(keys.size())});
    {
      // Every key once (each is the hottest for a while), then the mix.
      std::vector<std::future<viewmap::sys::InvestigationServer::Reports>> futs;
      for (const Key& k : keys) futs.push_back(svc->server()->submit(k.site, k.unit));
      Rng wr(opt.seed * 17 + 3);
      draws = 0;
      for (std::size_t w = 0; w < warmup; ++w) {
        const Key& k = zipf_key(wr);
        futs.push_back(svc->server()->submit(k.site, k.unit));
        if (futs.size() == kOutstanding) {
          for (auto& f : futs) (void)f.get();
          futs.clear();
        }
      }
      for (auto& f : futs) (void)f.get();
    }
    setup_s.add(ms_between(t0, Clock::now()) / 1000.0);
    setup_ingest.absorb(rep_ingest);
    store.full_checkpoint_ms.append(rep_store.full_checkpoint_ms);
  }
  if (opt.trace) time_vp_layer(city.sample, vp);

  Rng zipf(opt.seed * 1000003 + 11);
  const std::function<Key()> next_key = [&] { return zipf_key(zipf); };

  // Every served report must equal the first one served for its key; that
  // one is compared with a fresh build at the end.
  std::unordered_map<std::uint32_t, InvestigationReport> first_served;
  bool consistent = true;
  // What a hit copies and re-posts, on average over the served mix.
  double reports_served = 0.0, members_served = 0.0, solicited_served = 0.0;
  const OnServed check = [&](const Key& k, const InvestigationReport& r) {
    members_served += static_cast<double>(r.viewmap.size());
    solicited_served += static_cast<double>(r.solicited.size());
    reports_served += 1.0;
    const auto [it, inserted] = first_served.try_emplace(k.id, r);
    if (!inserted && !same_result(it->second, r)) consistent = false;
  };

  // The writer: paced passes into the newest minute, retention, checkpoints.
  IngestTally live;
  PassTruth live_truth;
  std::uint64_t expected_evicted = 0;
  std::size_t next_old = 0;  ///< oldest old shard still inside the window
  std::atomic<bool> stop{false};
  std::string writer_error;  ///< read only after the writer is joined
  std::size_t passes = 0;
  std::uint64_t churned = 0;  ///< accepted since the writer's last checkpoint
  const viewmap::index::IngestStats before_live = svc->ingest_totals();
  std::thread writer([&] {
    try {
      Clock::time_point next = Clock::now();
      while (!stop.load() && passes < writer_passes.size()) {
        const TimeSec clock = kEpoch + step * static_cast<TimeSec>(passes + 1);
        Pass& pass = writer_passes[passes];
        std::this_thread::sleep_until(next);
        next += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(pass_period_s));
        if (stop.load()) break;
        svc->advance_clock(clock);
        add_truth(live_truth, pass.truth);
        churned += upload(*svc, std::move(pass.uploads), opt.trace, live);
        ++passes;
        // Old shard i sits at kEpoch − window + (i + 1)·step; pass p
        // (clock kEpoch + p·step) evicts it once i + 1 < p.
        while (next_old < old_sizes.size() && next_old + 1 < passes)
          expected_evicted += old_sizes[next_old++];
        if (passes % checkpoint_every == 0) {
          checkpoint(*svc, *seg, churned, false, store);
          churned = 0;
        }
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });

  InvestigationLayers layers;
  const ServerCounters s0 = ServerCounters::read(*svc);
  const auto c0 = svc->result_cache().stats();
  const int rounds = rounds_for(opt.seconds * 0.9);
  Serving s(*svc, opt, rounds, opt.seconds * 0.35, opt.seconds * 0.55, open_rate, next_key, check,
            city.sybils, layers);
  try {
    for (int i = 0; i < rounds; ++i) s.round(i);
  } catch (...) {
    stop = true;
    writer.join();
    throw;
  }
  stop = true;
  writer.join();
  out.check(writer_error.empty(), "writer thread failed: " + writer_error);
  const ServerCounters s1 = ServerCounters::read(*svc);
  const auto c1 = svc->result_cache().stats();
  const std::size_t peak_queue = svc->server()->stats().peak_queue;
  add_requests(out, s.closed);
  add_requests(out, s.open);
  add_requests(out, s.traced_half);
  const viewmap::index::IngestStats live_delta = minus(svc->ingest_totals(), before_live);
  add_uploads(out, live_truth.valid, live_delta.accepted);

  // Oracles: every served report of a key equals a fresh build of it, the
  // cache stays within its byte budget, ingest matches the generator.
  out.check(consistent, "two served reports of one key differ");
  {
    const auto snap = svc->database().snapshot();
    for (const auto& [k, r] : first_served)
      out.check(fresh_fingerprint(snap, keys[k].site, keys[k].unit) == report_fingerprint(r),
                "a served (cached) report differs from a fresh build");
  }
  first_served.clear();
  out.check(c1.resident_bytes <= svc->result_cache().capacity_bytes(),
            "result cache exceeds its byte budget");
  check_truth(out, live_delta, live_truth, expected_evicted);

  // Cold restores of the final checkpoint, one per round, once this
  // process has released the service: restores taken beside the live
  // service read 0.1 s or 0.4 s at random, restores after it steadily
  // the former (see README.md).
  svc->stop_server();
  checkpoint(*svc, *seg, churned, false, store);
  const std::string sealed = digest_of(svc->database().snapshot().shard_digests());
  const std::string dir = seg->dir();
  seg.reset();
  svc.reset();
  writer_passes.clear();
  city = City{};
  restore_cold(dir, sealed, rounds, store, out);
  std::filesystem::remove_all(dir);

  if (opt.trace)
    put_layers(out, vp, live, live_delta, layers, s.open, s0, s1, peak_queue, c0, c1, store,
               s.overhead_frac());
  else
    put_end_to_end(out, s.closed, live, store, setup_s.median());

  Json phases;
  phases.obj("closed", phase_json("closed", s.closed)).obj("open", phase_json("open", s.open));
  if (opt.trace) phases.obj("closed_traced", phase_json("closed_traced", s.traced_half));
  out.detail.obj("identity", identity_json(opt, inputs, s.workers, store))
      .obj("phases", phases)
      .obj("payloads", payload_json(live_delta, live_truth))
      .integer("writer_passes", passes)
      .integer("distinct_keys", keys.size())
      .num("members_per_served_report", members_served / std::max(reports_served, 1.0))
      .num("solicited_per_served_report", solicited_served / std::max(reports_served, 1.0))
      .num("traced_accounted_frac", accounted_frac(layers, s.open))
      .num("open_rate_per_s", open_rate)
      .integer("outstanding", kOutstanding)
      .num("full_checkpoint_ms", store.full_checkpoint_ms.median())
      .num("setup_ingest_vps", setup_ingest.vps());
}

// ── upload_checkpoint_restart ───────────────────────────────────────────
//
// Upload passes with a stated share of bad payloads, the clock moving two
// days per pass so retention evicts continuously, an incremental
// checkpoint every two passes, and cold restores after every round of
// passes. A serving probe on a restored service, between the rounds,
// supplies the investigation figures every workload reports and, through
// its cached repeats, the result cache's.

void run_upload_checkpoint_restart(const Options& opt, Result& out) {
  const TimeSec step = 2 * kDay;
  const TimeSec window = retention_window();
  const int checkpoint_every = 2;
  const std::size_t fill = static_cast<std::size_t>(window / step) + 1;
  const std::size_t warm_passes = 2;
  const double probe_rate = opt.smoke ? 10.0 : 30.0;
  PassConfig cfg;
  cfg.city.side_m = opt.smoke ? 300.0 : 1400.0;
  cfg.city.hotspots = 8;
  cfg.city.police_route_m = opt.smoke ? 200.0 : 300.0;
  cfg.city.hotspot_offset_m = opt.smoke ? 80.0 : 150.0;

  Digest inputs;
  Samples setup_s;
  std::unique_ptr<ViewMapService> svc;
  std::unique_ptr<SegmentStore> seg;
  StoreTally store;
  SybilSet sybils;
  std::vector<Payload> sample;
  std::vector<std::size_t> shard_sizes;  ///< VPs per pass shard, by pass index
  std::vector<std::vector<viewmap::geo::Vec2>> hotspots;
  std::size_t pass_index = 0;
  std::size_t next_evict = 0;  ///< oldest pass shard still inside the window
  PassTruth truth;  ///< timed passes only
  std::uint64_t expected_evicted = 0;
  Rng rng(0);
  std::uint64_t churned = 0;

  // One pass: generation is untimed; upload and ingest are timed into
  // `ingest`; retention evicts what the moved clock leaves behind.
  const auto run_pass = [&](IngestTally& ingest, bool traced, PassTruth* sum,
                            std::uint64_t* evicted) {
    const TimeSec clock = kEpoch + step * static_cast<TimeSec>(pass_index);
    Pass pass = make_pass(viewmap::unit_start(clock), clock, cfg, rng);
    if (pass_index < 4) {
      for (const auto& p : pass.uploads) inputs.bytes(p.data(), p.size());
      const auto& valid = pass.minute.uploads;
      for (std::size_t i = 0; i < valid.size() && sample.size() < 256; i += 37)
        sample.push_back(valid[i]);
    }
    for (const auto& sid : pass.minute.sybil_ids) sybils.insert(sid);
    hotspots.push_back(pass.minute.hotspots);
    svc->advance_clock(clock);
    (void)svc->register_trusted(*pass.minute.police);
    shard_sizes.push_back(pass.truth.valid + 1);
    if (sum != nullptr) add_truth(*sum, pass.truth);
    churned += upload(*svc, std::move(pass.uploads), traced, ingest);
    // Retention drops every shard whose minute fell behind clock − window.
    while (next_evict < pass_index &&
           kEpoch + step * static_cast<TimeSec>(next_evict) < clock - window) {
      if (evicted != nullptr) *evicted += shard_sizes[next_evict];
      ++next_evict;
    }
    ++pass_index;
  };

  IngestTally setup_ingest;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    seg.reset();
    svc.reset();
    pass_index = 0;
    next_evict = 0;
    shard_sizes.clear();
    hotspots.clear();
    sample.clear();
    sybils.clear();
    inputs = Digest{};
    rng = Rng(opt.seed * 0x9e3779b97f4a7c15ull + 3);
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<ViewMapService>();
    IngestTally rep_ingest;
    PassTruth rep_truth;
    // Initial ingest: fill the retention window, seal a full checkpoint,
    // then warm up with a few passes of the timed kind.
    for (std::size_t p = 0; p < fill; ++p) run_pass(rep_ingest, opt.trace, &rep_truth, nullptr);
    seg = std::make_unique<SegmentStore>(fresh_store_dir(opt, "store"));
    StoreTally rep_store;
    checkpoint(*svc, *seg, 0, true, rep_store);
    churned = 0;
    for (std::size_t p = 0; p < warm_passes; ++p) run_pass(rep_ingest, opt.trace, &rep_truth, nullptr);
    checkpoint(*svc, *seg, churned, false, rep_store);
    churned = 0;
    setup_s.add(ms_between(t0, Clock::now()) / 1000.0);
    setup_ingest.absorb(rep_ingest);
    store.full_checkpoint_ms.append(rep_store.full_checkpoint_ms);
    const auto got = svc->ingest_totals();
    out.check(got.accepted == rep_truth.valid && got.rejected_malformed == rep_truth.malformed &&
                  got.rejected_untimely == rep_truth.untimely &&
                  got.rejected_duplicate == rep_truth.duplicate,
              "set-up ingest differs from the generator's ground truth");
    add_uploads(out, rep_truth.valid, got.accepted);
  }
  VpSample vp;
  if (opt.trace) time_vp_layer(sample, vp);

  // The serving probe runs on a service restored from the set-up's last
  // checkpoint: cold keys at the hotspots of its newest eight minutes.
  auto restored = std::make_unique<ViewMapService>();
  (void)restored->restore_from(*seg);
  restored->start_server();
  const std::size_t newest = pass_index;
  Rng krng(opt.seed * 1000003 + 5);
  std::uint32_t next_id = 0;
  const std::function<Key()> next_key = [&] {
    const std::size_t pass = newest - 1 - krng.index(8);
    const auto& hs = hotspots[pass];
    const auto c = hs[krng.index(hs.size())];
    const TimeSec unit = viewmap::unit_start(kEpoch + step * static_cast<TimeSec>(pass));
    return Key{site_at({c.x + krng.uniform(-40.0, 40.0), c.y + krng.uniform(-40.0, 40.0)}, 200.0),
               unit, next_id++};
  };
  // The open loop re-asks about the incidents of the newest two minutes
  // (their exact hotspot sites); once the warm-up has built them, the
  // restored service's result cache serves every one of these requests.
  std::vector<Key> repeat;
  for (std::size_t pass = newest - 2; pass < newest; ++pass)
    for (const auto& c : hotspots[pass])
      repeat.push_back(Key{site_at(c, 200.0),
                           viewmap::unit_start(kEpoch + step * static_cast<TimeSec>(pass)),
                           next_id++});
  Rng rrng(opt.seed * 1000003 + 7);
  const std::function<Key()> repeat_key = [&] { return repeat[rrng.index(repeat.size())]; };
  {
    // Warm-up: the restored profiles build their probe tables on first
    // touch; that cost shows in vp.bloom_probes_us, not in the probe.
    std::vector<std::future<viewmap::sys::InvestigationServer::Reports>> futs;
    for (const Key& k : repeat) futs.push_back(restored->server()->submit(k.site, k.unit));
    for (int w = 0; w < 16; ++w) {
      const Key k = next_key();
      futs.push_back(restored->server()->submit(k.site, k.unit));
    }
    for (auto& f : futs) (void)f.get();
  }
  // Every repeated report must equal the first one served for its key;
  // that one is compared with a fresh build at the end.
  std::unordered_map<std::uint32_t, std::uint64_t> repeat_prints;
  bool consistent = true;
  const OnServed check = [&](const Key& k, const InvestigationReport& r) {
    if (k.id >= repeat.size()) return;
    const std::uint64_t print = report_fingerprint(r);
    const auto [it, inserted] = repeat_prints.try_emplace(k.id, print);
    if (!inserted && it->second != print) consistent = false;
  };

  // Rounds: upload passes (a checkpoint every two), two cold restores of
  // the newest checkpoint, and a probe round. In traced runs passes alternate
  // traced / untraced and the rate difference is the tracing overhead.
  const viewmap::index::IngestStats before = svc->ingest_totals();
  IngestTally ingest, traced_ingest;
  const int rounds = rounds_for(opt.seconds * 0.9);
  const double pass_budget = opt.seconds * 0.55 / rounds;
  InvestigationLayers layers;
  const ServerCounters s0 = ServerCounters::read(*restored);
  const auto c0 = restored->result_cache().stats();
  Serving s(*restored, opt, rounds, opt.seconds * 0.1, opt.seconds * 0.25, probe_rate, next_key,
            check, sybils, layers);
  s.open_key = repeat_key;
  std::size_t timed = 0;
  for (int i = 0; i < rounds; ++i) {
    const Clock::time_point t0 = Clock::now();
    do {
      const bool traced = opt.trace && timed % 2 == 1;
      run_pass(traced ? traced_ingest : ingest, traced, &truth, &expected_evicted);
      if (++timed % checkpoint_every == 0) {
        checkpoint(*svc, *seg, churned, false, store);
        churned = 0;
      }
    } while (ms_between(t0, Clock::now()) / 1000.0 < pass_budget);
    if (churned != 0) {
      checkpoint(*svc, *seg, churned, false, store);
      churned = 0;
    }
    restore_cold(seg->dir(), digest_of(svc->database().snapshot().shard_digests()),
                 kRestoresPerRound, store, out);
    s.round(i);
  }
  const viewmap::index::IngestStats delta = minus(svc->ingest_totals(), before);
  add_uploads(out, truth.valid, delta.accepted);
  check_truth(out, delta, truth, expected_evicted);
  add_requests(out, s.closed);
  add_requests(out, s.open);
  add_requests(out, s.traced_half);
  const ServerCounters s1 = ServerCounters::read(*restored);
  const auto c1 = restored->result_cache().stats();
  const std::size_t peak_queue = restored->server()->stats().peak_queue;
  out.check(consistent, "two served reports of one repeated key differ");
  {
    const auto snap = restored->database().snapshot();
    for (const auto& [id, print] : repeat_prints)
      out.check(fresh_fingerprint(snap, repeat[id].site, repeat[id].unit) == print,
                "a served (cached) report differs from a fresh build");
  }
  out.check(c1.resident_bytes <= restored->result_cache().capacity_bytes(),
            "result cache exceeds its byte budget");
  seg.reset();
  svc.reset();
  std::filesystem::remove_all(opt.work_dir + "/" + opt.workload + "-store");

  double overhead = 0.0;
  if (opt.trace && ingest.vps() > 0.0) overhead = 1.0 - traced_ingest.vps() / ingest.vps();
  IngestTally all = ingest;
  all.absorb(traced_ingest);

  // The investigation layers are idle during the timed passes; their
  // per-layer figures come from the probe's open loop, served by the cache.
  if (opt.trace)
    put_layers(out, vp, all, delta, layers, s.open, s0, s1, peak_queue, c0, c1, store, overhead);
  else
    put_end_to_end(out, s.closed, all, store, setup_s.median());

  Json phases;
  phases.obj("probe_closed", phase_json("probe_closed", s.closed))
      .obj("probe_open", phase_json("probe_open", s.open));
  if (opt.trace)
    phases.obj("probe_closed_traced", phase_json("probe_closed_traced", s.traced_half));
  out.detail.obj("identity", identity_json(opt, inputs, s.workers, store))
      .obj("phases", phases)
      .obj("payloads", payload_json(delta, truth))
      .integer("timed_passes", timed)
      .integer("checkpoints", store.checkpoint_ms.count())
      .num("probe_rate_per_s", probe_rate)
      .integer("repeated_keys", repeat.size())
      .num("full_checkpoint_ms", store.full_checkpoint_ms.median())
      .num("setup_ingest_vps", setup_ingest.vps());
}

}  // namespace perfbench
