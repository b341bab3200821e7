#include "load.h"

#include <sys/resource.h>

#include <list>
#include <thread>

namespace perfbench {

using viewmap::sys::InvestigationReport;

namespace {

constexpr auto kPollGap = std::chrono::microseconds(250);
/// Rate samples: each spans at least kRateRun completions and at least
/// 1/kRateWindows of the slice's completions, so that at high rates a
/// window is tens of milliseconds long and the grain at which completions
/// are seen (a poll, a burst of ready futures) cannot quantize it.
constexpr std::size_t kRateRun = 16;
constexpr std::size_t kRateWindows = 16;

struct InFlight {
  std::future<viewmap::sys::InvestigationServer::Reports> fut;
  Clock::time_point due;  ///< open loop: when it was due; closed: when sent
  Key key;
};

double cpu_s(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double span_ms(const InvestigationReport& r, const char* name) {
  std::uint64_t us = 0;
  for (const auto& s : r.trace.spans)
    if (s.name == name) us += s.dur_us;
  return static_cast<double>(us) / 1000.0;
}

bool served_from_cache(const InvestigationReport& r) {
  for (const auto& s : r.trace.spans)
    if (s.name == "result_cache_hit") return true;
  return false;
}

void absorb_report(const InvestigationReport& r,
                   const std::unordered_set<viewmap::Id16, viewmap::Id16Hasher>& sybils,
                   InvestigationLayers& layers) {
  if (served_from_cache(r)) {
    layers.hit_us.add(static_cast<double>(r.trace.total_us));
    return;
  }
  const double ms = span_ms(r, "member_select"), grid = span_ms(r, "candidate_grid"),
               edges = span_ms(r, "edge_build"), csr = span_ms(r, "csr_build");
  layers.member_select_ms.add(ms);
  layers.candidate_grid_ms.add(grid);
  layers.edge_build_ms.add(edges);
  layers.csr_build_ms.add(csr);
  layers.build_ms.add(ms + grid + edges + csr);
  const double tr = span_ms(r, "trust_rank"), a1 = span_ms(r, "algorithm1");
  layers.trust_rank_ms.add(tr);
  layers.algorithm1_ms.add(a1);
  layers.verify_ms.add(tr + a1);
  const auto& map = r.viewmap;
  layers.members.add(static_cast<double>(map.size()));
  layers.edges_per_member.add(
      map.size() == 0 ? 0.0
                      : static_cast<double>(map.edge_count()) / static_cast<double>(map.size()));
  const auto& v = r.verification;
  layers.iterations.add(v.ranks.iterations);
  layers.legit_frac.add(v.site_members.empty()
                            ? 0.0
                            : static_cast<double>(v.legitimate.size()) /
                                  static_cast<double>(v.site_members.size()));
  for (std::size_t i : v.legitimate)
    if (sybils.count(map.member(i).vp_id()) != 0) ++layers.sybil_accepted;
}

}  // namespace

LoadResult run_load(viewmap::sys::ViewMapService& service, const LoadConfig& cfg,
                    const std::function<Key()>& next_key, const OnServed& on_served,
                    const std::unordered_set<viewmap::Id16, viewmap::Id16Hasher>& sybils,
                    InvestigationLayers* layers) {
  viewmap::sys::InvestigationServer& server = *service.server();
  LoadResult out;
  std::list<InFlight> flight;
  const double client_cpu0 = cpu_s(RUSAGE_THREAD), process_cpu0 = cpu_s(RUSAGE_SELF);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(cfg.seconds));
  // Open loop: a fixed offered rate, one request every 1/rate seconds.
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.open ? 1.0 / cfg.rate_per_s : 0.0));
  Clock::time_point next_due = t0;
  Clock::time_point last_done = t0;
  std::uint64_t served = 0;

  const auto send = [&](Clock::time_point due) {
    const Key key = next_key();
    const Clock::time_point sent = Clock::now();
    auto fut = server.submit(key.site, key.unit);
    ++out.count.sent;
    if (cfg.open) out.lateness_ms.add(ms_between(due, sent));
    if (!fut.valid()) {
      ++out.count.rejected;
      return;
    }
    flight.push_back(InFlight{std::move(fut), cfg.open ? due : sent, key});
  };

  std::vector<double> done_at;  // seconds since t0, completions before `stop`
  const auto complete = [&](InFlight& f, Clock::time_point done) {
    last_done = done;
    try {
      const auto reports = f.fut.get();
      if (reports.size() != 1) {
        ++out.count.failed;  // a served key always has exactly one seeded minute
        return;
      }
      const InvestigationReport& r = reports.front();
      ++out.count.succeeded;
      if (done < stop) done_at.push_back(std::chrono::duration<double>(done - t0).count());
      const double latency = ms_between(f.due, done);
      const double service_ms = static_cast<double>(r.trace.total_us) / 1000.0;
      out.latency_ms.add(latency);
      out.service_ms.add(service_ms);
      out.wait_ms.add(latency - service_ms);
      if (served_from_cache(r)) ++out.hits;
      if (on_served) on_served(f.key, r);
      if (layers != nullptr) {
        absorb_report(r, sybils, *layers);
        // Sample the index read path the server's workers use: the first
        // request of the slice and every 32nd after it.
        if (served++ % 32 == 0) {
          const Clock::time_point a = Clock::now();
          const auto snap = service.database().snapshot();
          const Clock::time_point b = Clock::now();
          const auto found = snap.query(f.key.unit, f.key.site);
          const Clock::time_point c = Clock::now();
          layers->snapshot_us.add(us_between(a, b));
          layers->query_us.add(us_between(b, c));
          (void)found;
        }
      }
    } catch (const viewmap::sys::DeadlineExpired&) {
      ++out.count.expired;
    } catch (const std::exception&) {
      ++out.count.failed;
    }
  };

  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool sending = now < stop;
    if (sending) {
      if (cfg.open) {
        while (next_due <= now && next_due < stop) {
          send(next_due);
          next_due += gap;
        }
      } else {
        while (flight.size() < cfg.outstanding) send(now);
      }
    }
    if (flight.empty()) {
      if (!sending || !cfg.open || next_due >= stop) break;
      std::this_thread::sleep_until(next_due);
      continue;
    }
    Clock::time_point wake = Clock::now() + kPollGap;
    if (cfg.open && sending && next_due < wake) wake = next_due;
    flight.front().fut.wait_until(wake);
    const Clock::time_point seen = Clock::now();
    if (!cfg.open) {
      // Closed loop: harvest in send order. Polling a future that is not
      // ready costs a system call, so scanning every outstanding request
      // would make the client, not the server, the bottleneck; the rate
      // does not depend on the order completions are seen in.
      while (!flight.empty() &&
             flight.front().fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(flight.front(), seen);
        flight.pop_front();
      }
      continue;
    }
    for (auto it = flight.begin(); it != flight.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(*it, seen);
        it = flight.erase(it);
      } else {
        ++it;
      }
    }
  }
  out.elapsed_s = std::chrono::duration<double>(last_done - t0).count();
  out.client_cpu_s = cpu_s(RUSAGE_THREAD) - client_cpu0;
  out.process_cpu_s = cpu_s(RUSAGE_SELF) - process_cpu0;
  if (cfg.open && !out.latency_ms.empty()) {
    out.slice_p50_ms.add(out.latency_ms.median());
    out.slice_p99_ms.add(out.latency_ms.quantile(0.99));
  }
  const std::size_t run = std::max(kRateRun, done_at.size() / kRateWindows);
  for (std::size_t i = run; i < done_at.size(); ++i) {
    const double span = done_at[i] - done_at[i - run];
    if (span > 0.0) out.rate_samples.add(static_cast<double>(run) / span);
  }
  return out;
}

}  // namespace perfbench
