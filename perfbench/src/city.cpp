#include "city.h"

#include <cmath>
#include <unordered_map>

#include "attack/fake_vp.h"

namespace perfbench {

using viewmap::Rng;
using viewmap::TimeSec;
using viewmap::geo::Vec2;
using viewmap::vp::ViewProfile;

namespace {

constexpr double kTau = 6.283185307179586;
constexpr double kPlatoonGap = 40.0;   // metres between platoon mates
constexpr double kCrossRange = 350.0;  // cross-traffic links, inside the 400 m radio radius
constexpr double kPoliceRange = 150.0;
constexpr std::size_t kPoliceLinks = 200;  // below the 250-neighbour protocol cap
constexpr double kCell = 250.0;

std::uint64_t cell_key(Vec2 p) {
  const auto ix = static_cast<std::int64_t>(std::floor(p.x / kCell));
  const auto iy = static_cast<std::int64_t>(std::floor(p.y / kCell));
  return (static_cast<std::uint64_t>(ix) << 32) ^ static_cast<std::uint32_t>(iy);
}

Vec2 heading(double angle) { return {std::cos(angle), std::sin(angle)}; }

}  // namespace

Minute make_minute(TimeSec unit, const CityConfig& cfg, Rng& rng) {
  Minute out;
  out.unit = unit;
  const double half = cfg.side_m / 2.0;
  const auto honest = static_cast<std::size_t>(
      cfg.density_per_km2 * cfg.side_m * cfg.side_m / 1e6);

  // Honest platoons, each mate linked to the one ahead.
  std::vector<ViewProfile> fleet;
  std::vector<std::size_t> platoon_of;
  fleet.reserve(honest);
  platoon_of.reserve(honest);
  std::size_t platoon_id = 0;
  while (fleet.size() < honest) {
    const Vec2 lead{rng.uniform(-half, half), rng.uniform(-half, half)};
    const Vec2 dir = heading(rng.uniform(0.0, kTau));
    const double len = rng.uniform(200.0, 700.0);
    const std::size_t size = std::min<std::size_t>(1 + rng.index(6), honest - fleet.size());
    for (std::size_t k = 0; k < size; ++k) {
      const double back = kPlatoonGap * static_cast<double>(k);
      const Vec2 a{lead.x - dir.x * back, lead.y - dir.y * back};
      fleet.push_back(viewmap::attack::make_fake_profile(
          unit, a, {a.x + dir.x * len, a.y + dir.y * len}, rng));
      platoon_of.push_back(platoon_id);
      if (k > 0) viewmap::vp::link_mutually(fleet[fleet.size() - 2], fleet.back());
    }
    ++platoon_id;
  }

  // Cross traffic: two tries per vehicle at a random vehicle of a nearby
  // cell, linked when the pair really came within radio range.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells;
  for (std::uint32_t i = 0; i < fleet.size(); ++i)
    cells[cell_key(fleet[i].first_location())].push_back(i);
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    const Vec2 p = fleet[i].first_location();
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Vec2 q{p.x + kCell * static_cast<double>(rng.uniform_int(-1, 1)),
                   p.y + kCell * static_cast<double>(rng.uniform_int(-1, 1))};
      const auto it = cells.find(cell_key(q));
      if (it == cells.end()) continue;
      const std::uint32_t j = it->second[rng.index(it->second.size())];
      if (j == i || platoon_of[j] == platoon_of[i]) continue;
      if (fleet[i].ever_within(fleet[j], kCrossRange))
        viewmap::vp::link_mutually(fleet[i], fleet[j]);
    }
  }

  // The police car: a route through the centre of the district, east-west
  // in even minutes and north-south in odd ones, linked to the vehicles it
  // passes. Route and hotspots are fixed points of the city, not drawn
  // from the seed, so viewmap sizes differ between seeds only by traffic.
  const bool vertical = (unit / viewmap::kUnitTimeSec) % 2 != 0;
  const Vec2 dir = vertical ? Vec2{0.0, 1.0} : Vec2{1.0, 0.0};
  const Vec2 normal = vertical ? Vec2{1.0, 0.0} : Vec2{0.0, 1.0};
  const double reach = cfg.police_route_m / 2.0;
  const Vec2 pa{-dir.x * reach, -dir.y * reach};
  const Vec2 pb{dir.x * reach, dir.y * reach};
  ViewProfile police = viewmap::attack::make_fake_profile(unit, pa, pb, rng);
  std::size_t police_links = 0;
  for (auto& v : fleet) {
    if (police_links == kPoliceLinks) break;
    if (police.ever_within(v, kPoliceRange)) {
      viewmap::vp::link_mutually(police, v);
      ++police_links;
    }
  }

  // Incident hotspots beside the route, each claimed by a Sybil layer.
  std::vector<ViewProfile> sybils;
  for (int h = 0; h < cfg.hotspots; ++h) {
    const double t = (h + 0.5) / cfg.hotspots;
    const double off = (h % 2 == 0 ? 1.0 : -1.0) * cfg.hotspot_offset_m;
    const Vec2 c{pa.x + (pb.x - pa.x) * t + normal.x * off,
                 pa.y + (pb.y - pa.y) * t + normal.y * off};
    out.hotspots.push_back(c);
    const std::size_t first = sybils.size();
    for (int s = 0; s < cfg.sybils_per_hotspot; ++s) {
      const Vec2 a{c.x + rng.uniform(-80.0, 80.0), c.y + rng.uniform(-80.0, 80.0)};
      const Vec2 b{a.x + rng.uniform(-100.0, 100.0), a.y + rng.uniform(-100.0, 100.0)};
      sybils.push_back(viewmap::attack::make_fake_profile(unit, a, b, rng));
    }
    const std::size_t n = sybils.size() - first;
    for (std::size_t s = 0; s < n; ++s) {
      viewmap::attack::forge_link(sybils[first + s], sybils[first + (s + 1) % n]);
      if (n > 3 && s < n / 2)
        viewmap::attack::forge_link(sybils[first + s], sybils[first + s + n / 2]);
    }
  }

  out.uploads.reserve(fleet.size() + sybils.size());
  for (const auto& v : fleet) out.uploads.push_back(v.serialize());
  for (const auto& s : sybils) {
    out.sybil_ids.push_back(s.vp_id());
    out.uploads.push_back(s.serialize());
  }
  rng.shuffle(out.uploads);
  out.police.emplace(std::move(police));
  return out;
}

Pass make_pass(TimeSec unit, TimeSec clock, const PassConfig& cfg, Rng& rng) {
  Pass pass;
  pass.minute = make_minute(unit, cfg.city, rng);
  const std::vector<Payload>& valid = pass.minute.uploads;
  pass.uploads = valid;
  pass.truth.valid = valid.size();
  const auto share = [&](double frac) {
    return static_cast<std::size_t>(std::llround(frac * static_cast<double>(valid.size())));
  };
  const double half = cfg.city.side_m / 2.0;
  const auto somewhere = [&] { return Vec2{rng.uniform(-half, half), rng.uniform(-half, half)}; };

  // Malformed: alternately a truncated copy of a valid payload (fails the
  // parse) and a profile claiming ~135 m/s (fails the structural screen).
  const std::size_t malformed = share(cfg.malformed_frac);
  for (std::size_t k = 0; k < malformed; ++k) {
    if (k % 2 == 0) {
      Payload cut = valid[rng.index(valid.size())];
      cut.resize(cut.size() - 1 - rng.index(cut.size() / 2));
      pass.uploads.push_back(std::move(cut));
    } else {
      const Vec2 a = somewhere();
      pass.uploads.push_back(
          viewmap::attack::make_fake_profile(unit, a, {a.x + 8000.0, a.y}, rng).serialize());
    }
  }
  // Untimely: well formed, but three hours ahead of the trusted clock.
  const TimeSec future = viewmap::unit_start(clock + 3 * 3600);
  const std::size_t untimely = share(cfg.untimely_frac);
  for (std::size_t k = 0; k < untimely; ++k) {
    const Vec2 a = somewhere();
    pass.uploads.push_back(
        viewmap::attack::make_fake_profile(future, a, {a.x + 300.0, a.y}, rng).serialize());
  }
  // Duplicates: one re-sent copy each of distinct valid payloads.
  const std::size_t duplicate = share(cfg.duplicate_frac);
  for (std::size_t idx : rng.sample_indices(valid.size(), duplicate))
    pass.uploads.push_back(valid[idx]);

  pass.truth.malformed = malformed;
  pass.truth.untimely = untimely;
  pass.truth.duplicate = std::min(duplicate, valid.size());
  rng.shuffle(pass.uploads);
  return pass;
}

}  // namespace perfbench
