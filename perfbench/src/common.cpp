#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"

namespace perfbench {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

class Mixer {
 public:
  void add(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ull + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdull;
  }
  void id(const viewmap::Id16& x) {
    std::uint64_t a = 0, b = 0;
    __builtin_memcpy(&a, x.bytes.data(), 8);
    __builtin_memcpy(&b, x.bytes.data() + 8, 8);
    add(a);
    add(b);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ull;
};

std::uint64_t fingerprint(const viewmap::sys::Viewmap& m,
                          const viewmap::sys::VerificationResult& v,
                          const std::vector<viewmap::Id16>& solicited) {
  Mixer h;
  h.add(m.size());
  h.add(static_cast<std::uint64_t>(m.unit_time()));
  // Members by profile object: both sides of every comparison read the
  // same pinned shards, so equal objects are the strict form of equal ids,
  // and the client avoids a cache miss per member.
  for (std::size_t i = 0; i < m.size(); ++i) {
    h.add(reinterpret_cast<std::uintptr_t>(&m.member(i)));
    h.add(m.is_trusted(i) ? 1 : 0);
  }
  for (std::size_t o : m.graph().offsets()) h.add(o);
  for (std::uint32_t e : m.graph().edges()) h.add(e);
  h.add(0xa1);
  for (std::size_t i : v.site_members) h.add(i);
  h.add(0xa2);
  for (std::size_t i : v.legitimate) h.add(i);
  h.add(0xa3);
  for (std::size_t i : v.rejected) h.add(i);
  for (double s : v.ranks.scores) h.add(std::bit_cast<std::uint64_t>(s));
  h.add(static_cast<std::uint64_t>(v.ranks.iterations));
  h.add(v.ranks.converged ? 1 : 0);
  for (const auto& id : solicited) h.id(id);
  return h.value();
}

}  // namespace

Json& Json::num(const std::string& key, double v) {
  char buf[40];
  if (!std::isfinite(v)) v = 0.0;
  std::snprintf(buf, sizeof buf, "%.17g", v);
  fields_.emplace_back(key, buf);
  return *this;
}
Json& Json::integer(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}
Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}
Json& Json::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, json_quote(v));
  return *this;
}
Json& Json::obj(const std::string& key, const Json& v) {
  fields_.emplace_back(key, v.dump());
  return *this;
}
Json& Json::raw(const std::string& key, std::string text) {
  fields_.emplace_back(key, std::move(text));
  return *this;
}
std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

bool same_result(const viewmap::sys::InvestigationReport& a,
                 const viewmap::sys::InvestigationReport& b) {
  const viewmap::sys::Viewmap& x = a.viewmap;
  const viewmap::sys::Viewmap& y = b.viewmap;
  if (x.size() != y.size() || x.unit_time() != y.unit_time()) return false;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (&x.member(i) != &y.member(i) || x.is_trusted(i) != y.is_trusted(i)) return false;
  const auto same = [](const auto& p, const auto& q) {
    return std::equal(p.begin(), p.end(), q.begin(), q.end());
  };
  const auto& v = a.verification;
  const auto& w = b.verification;
  return same(x.graph().offsets(), y.graph().offsets()) &&
         same(x.graph().edges(), y.graph().edges()) && v.site_members == w.site_members &&
         v.legitimate == w.legitimate && v.rejected == w.rejected &&
         v.ranks.scores.size() == w.ranks.scores.size() &&
         std::memcmp(v.ranks.scores.data(), w.ranks.scores.data(),
                     v.ranks.scores.size() * sizeof(double)) == 0 &&
         v.ranks.iterations == w.ranks.iterations && v.ranks.converged == w.ranks.converged &&
         a.solicited == b.solicited;
}

std::uint64_t report_fingerprint(const viewmap::sys::InvestigationReport& r) {
  return fingerprint(r.viewmap, r.verification, r.solicited);
}

std::uint64_t fresh_fingerprint(const viewmap::sys::DbSnapshot& snap,
                                const viewmap::geo::Rect& site, viewmap::TimeSec unit) {
  const viewmap::sys::ViewmapBuilder builder;
  const viewmap::sys::Verifier verifier;
  const viewmap::sys::Viewmap map = builder.build(snap, site, unit);
  const viewmap::sys::VerificationResult verdict = verifier.verify(map, site);
  std::vector<viewmap::Id16> solicited;
  for (std::size_t i : verdict.legitimate)
    if (!map.is_trusted(i)) solicited.push_back(map.member(i).vp_id());
  return fingerprint(map, verdict, solicited);
}

std::uint64_t rss_bytes() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void Digest::bytes(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    __builtin_memcpy(&w, p + i, 8);
    u64(w);
  }
  for (; i < n; ++i) u64(p[i]);
  u64(n);
}
void Digest::u64(std::uint64_t v) {
  h_ = (h_ ^ v) * 0x100000001b3ull;
  h_ ^= h_ >> 29;
}
std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
