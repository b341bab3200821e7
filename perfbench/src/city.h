// Seeded synthetic input: one minute of a dense downtown as the uploads
// and trusted VP the service would receive, plus upload passes with a
// known share of malformed, untimely and duplicate payloads.
//
// Honest vehicles drive in platoons and carry real viewlinks
// (vp::link_mutually) to platoon mates and to cross traffic within radio
// range; one police car per minute is linked to the vehicles it passes
// and is registered as the minute's trust seed; at every incident
// hotspot a colluding Sybil layer (attack::make_fake_profile +
// attack::forge_link) claims the site. TrustRank and Algorithm 1 thus
// see a connected honest graph and a fake layer to reject.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/types.h"
#include "geo/geometry.h"
#include "vp/view_profile.h"

namespace perfbench {

struct CityConfig {
  double side_m = 1600.0;           ///< downtown square side
  double density_per_km2 = 1200.0;  ///< honest VPs per km² per minute
  int hotspots = 8;                 ///< incident sites per minute
  int sybils_per_hotspot = 12;
  double police_route_m = 300.0;    ///< police-car trajectory length
  double hotspot_offset_m = 150.0;  ///< hotspot distance from the route
};

/// One minute of downtown traffic, ready to upload.
struct Minute {
  viewmap::TimeSec unit = 0;
  std::optional<viewmap::vp::ViewProfile> police;  ///< the trust seed
  std::vector<Payload> uploads;  ///< honest + Sybil payloads, shuffled
  std::vector<viewmap::geo::Vec2> hotspots;
  std::vector<viewmap::Id16> sybil_ids;
};

Minute make_minute(viewmap::TimeSec unit, const CityConfig& cfg, viewmap::Rng& rng);

/// An incident site of the given side centred at `c`.
inline viewmap::geo::Rect site_at(viewmap::geo::Vec2 c, double side) {
  return {{c.x - side / 2.0, c.y - side / 2.0}, {c.x + side / 2.0, c.y + side / 2.0}};
}

struct PassConfig {
  CityConfig city;
  double malformed_frac = 0.04;  ///< truncated or implausible-speed payloads
  double untimely_frac = 0.03;   ///< claims beyond the future-skew allowance
  double duplicate_frac = 0.03;  ///< re-sent copies of valid payloads
};

/// What the ingest path must conclude about one pass.
struct PassTruth {
  std::size_t valid = 0;
  std::size_t malformed = 0;
  std::size_t untimely = 0;
  std::size_t duplicate = 0;
};

struct Pass {
  Minute minute;                ///< valid uploads + trust seed of `unit`
  std::vector<Payload> uploads;  ///< minute.uploads plus the bad payloads, shuffled
  PassTruth truth;
};

/// A pass of uploads claiming minute `unit` while the trusted clock reads
/// `clock` (untimely payloads claim clock + 3 h).
Pass make_pass(viewmap::TimeSec unit, viewmap::TimeSec clock, const PassConfig& cfg,
               viewmap::Rng& rng);

}  // namespace perfbench
