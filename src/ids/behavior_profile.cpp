#include "ids/behavior_profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "ids/minijson.hpp"

namespace tmg::ids {

namespace {

/// The controller's virtual identity (Controller::ip()). Packet-Ins the
/// core consumes before the anomaly slot — probe replies addressed to
/// this IP and ARP requests resolving it — must be filtered from traces
/// to keep the offline feature stream identical to the online one.
constexpr const char* kControllerIpSuffix = "-> 10.255.255.254";

/// in_port values at or above the reserved-port range never reach the
/// anomaly slot (bounced LLI probes arrive as of::kPortController).
constexpr std::uint16_t kReservedPortFloor = 0xfffb;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// A file number as a count. Converting a double outside [0, 2^64) to
/// an integer is undefined behaviour, so such values are rejected.
std::optional<std::uint64_t> to_count(double v) {
  if (!(v >= 0.0 && v < 0x1p64)) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

/// A file number as sim-time nanoseconds; nullopt outside int64 range.
std::optional<std::int64_t> to_nanos(double v) {
  if (!(v >= -0x1p63 && v < 0x1p63)) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

/// "PktArp>PktIp" / "Start>PktArp>PktIp" transition labels.
std::string bigram_label(std::uint32_t key) {
  const auto prev = static_cast<Symbol>(key / kSymbolCount);
  const auto cur = static_cast<Symbol>(key % kSymbolCount);
  return std::string{to_string(prev)} + ">" + to_string(cur);
}

std::string trigram_label(std::uint32_t key) {
  const auto cur = static_cast<Symbol>(key % kSymbolCount);
  return bigram_label(key / kSymbolCount) + ">" + to_string(cur);
}

std::optional<std::uint32_t> bigram_key_from_label(const std::string& label) {
  const std::size_t sep = label.find('>');
  if (sep == std::string::npos) return std::nullopt;
  const auto prev = symbol_from_string(label.substr(0, sep));
  const auto cur = symbol_from_string(label.substr(sep + 1));
  if (!prev || !cur) return std::nullopt;
  return bigram_key(*prev, *cur);
}

std::optional<std::uint32_t> trigram_key_from_label(
    const std::string& label) {
  const std::size_t s1 = label.find('>');
  if (s1 == std::string::npos) return std::nullopt;
  const std::size_t s2 = label.find('>', s1 + 1);
  if (s2 == std::string::npos) return std::nullopt;
  const auto p2 = symbol_from_string(label.substr(0, s1));
  const auto p1 = symbol_from_string(label.substr(s1 + 1, s2 - s1 - 1));
  const auto cur = symbol_from_string(label.substr(s2 + 1));
  if (!p2 || !p1 || !cur) return std::nullopt;
  return trigram_key(*p2, *p1, *cur);
}

}  // namespace

const char* to_string(Symbol s) {
  switch (s) {
    case Symbol::Start: return "Start";
    case Symbol::PktArp: return "PktArp";
    case Symbol::PktIp: return "PktIp";
    case Symbol::PktLldp: return "PktLldp";
    case Symbol::PktOther: return "PktOther";
    case Symbol::PortUp: return "PortUp";
    case Symbol::PortDown: return "PortDown";
    case Symbol::HostNew: return "HostNew";
    case Symbol::HostMoved: return "HostMoved";
    case Symbol::LinkRemoved: return "LinkRemoved";
  }
  return "Unknown";
}

std::optional<Symbol> symbol_from_string(const std::string& name) {
  for (std::size_t i = 0; i < kSymbolCount; ++i) {
    const auto s = static_cast<Symbol>(i);
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

PortKey port_key(of::Location loc) {
  return stats::FlowStats::port_key(loc.dpid, loc.port);
}

of::Location port_key_location(PortKey key) {
  return of::Location{key >> 16, static_cast<of::PortNo>(key & 0xffff)};
}

std::string port_key_to_string(PortKey key) {
  return port_key_location(key).to_string();
}

std::optional<PortKey> port_key_from_string(const std::string& text) {
  if (!starts_with(text, "0x")) return std::nullopt;
  char* end = nullptr;
  const unsigned long long dpid = std::strtoull(text.c_str() + 2, &end, 16);
  if (end == text.c_str() + 2 || *end != ':') return std::nullopt;
  const char* port_begin = end + 1;
  const unsigned long port = std::strtoul(port_begin, &end, 10);
  if (end == port_begin || *end != '\0' || port > 0xffff) return std::nullopt;
  return stats::FlowStats::port_key(dpid, static_cast<std::uint16_t>(port));
}

bool BehaviorProfile::has_bigram(PortKey port, Symbol prev,
                                 Symbol cur) const {
  const auto it = ports.find(port);
  return it != ports.end() &&
         it->second.bigrams.count(bigram_key(prev, cur)) != 0;
}

std::string BehaviorProfile::to_json() const {
  std::string out = "{\"format\":\"tmg-behavior-profile-v1\",\"trials\":";
  append_u64(out, trials);
  out += ",\"events\":";
  append_u64(out, events);
  out += ",\"ports\":[";
  bool first_port = true;
  for (const auto& [key, p] : ports) {
    if (!first_port) out += ",";
    first_port = false;
    out += "{\"port\":\"" + port_key_to_string(key) + "\",\"events\":";
    append_u64(out, p.events);
    out += ",\"peak_rate_per_s\":";
    append_u64(out, p.peak_rate_per_s);
    out += ",\"mean_rate_per_s\":";
    append_double(out, p.mean_rate_per_s);
    out += ",\"bigrams\":{";
    bool first = true;
    for (const auto& [k, n] : p.bigrams) {
      if (!first) out += ",";
      first = false;
      out += "\"" + bigram_label(k) + "\":";
      append_u64(out, n);
    }
    out += "},\"trigrams\":{";
    first = true;
    for (const auto& [k, n] : p.trigrams) {
      if (!first) out += ",";
      first = false;
      out += "\"" + trigram_label(k) + "\":";
      append_u64(out, n);
    }
    out += "},\"lldp_srcs\":[";
    first = true;
    for (const PortKey src : p.lldp_srcs) {
      if (!first) out += ",";
      first = false;
      out += "\"" + port_key_to_string(src) + "\"";
    }
    out += "]}";
  }
  out += "],\"durations\":[";
  bool first_dur = true;
  for (const auto& [kind, d] : durations) {
    if (!first_dur) out += ",";
    first_dur = false;
    out += "{\"kind\":\"" + kind + "\",\"count\":";
    append_u64(out, d.count);
    out += ",\"p50_ns\":";
    append_double(out, d.p50_ns);
    out += ",\"p90_ns\":";
    append_double(out, d.p90_ns);
    out += ",\"p99_ns\":";
    append_double(out, d.p99_ns);
    out += ",\"max_ns\":";
    append_double(out, d.max_ns);
    out += "}";
  }
  out += "]}";
  return out;
}

std::optional<BehaviorProfile> BehaviorProfile::from_json(
    const std::string& text, std::string* error) {
  const auto fail =
      [&](const std::string& msg) -> std::optional<BehaviorProfile> {
    if (error != nullptr && error->empty()) *error = msg;
    return std::nullopt;
  };
  const auto doc = minijson::parse(text, error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) return fail("profile: not a JSON object");
  if (doc->get_string("format") != "tmg-behavior-profile-v1") {
    return fail("profile: unknown format (want tmg-behavior-profile-v1)");
  }
  BehaviorProfile profile;
  profile.trials = doc->get_u64("trials");
  profile.events = doc->get_u64("events");
  const minijson::Value* ports = doc->get("ports");
  if (ports == nullptr || !ports->is_array()) {
    return fail("profile: missing \"ports\" array");
  }
  for (const auto& entry : ports->array) {
    if (!entry.is_object()) return fail("profile: port entry not an object");
    const auto key = port_key_from_string(entry.get_string("port"));
    if (!key) {
      return fail("profile: bad port key \"" + entry.get_string("port") +
                  "\"");
    }
    PortProfile p;
    p.events = entry.get_u64("events");
    p.peak_rate_per_s = entry.get_u64("peak_rate_per_s");
    p.mean_rate_per_s = entry.get_number("mean_rate_per_s");
    if (const minijson::Value* bi = entry.get("bigrams");
        bi != nullptr && bi->is_object()) {
      for (const auto& [label, count] : bi->object) {
        const auto k = bigram_key_from_label(label);
        if (!k) return fail("profile: bad bigram label \"" + label + "\"");
        const auto n = count.is_number() ? to_count(count.number)
                                         : std::nullopt;
        if (!n) return fail("profile: bigram count not a count");
        p.bigrams[*k] = *n;
      }
    }
    if (const minijson::Value* tri = entry.get("trigrams");
        tri != nullptr && tri->is_object()) {
      for (const auto& [label, count] : tri->object) {
        const auto k = trigram_key_from_label(label);
        if (!k) return fail("profile: bad trigram label \"" + label + "\"");
        const auto n = count.is_number() ? to_count(count.number)
                                         : std::nullopt;
        if (!n) return fail("profile: trigram count not a count");
        p.trigrams[*k] = *n;
      }
    }
    if (const minijson::Value* srcs = entry.get("lldp_srcs");
        srcs != nullptr && srcs->is_array()) {
      for (const auto& src : srcs->array) {
        if (!src.is_string()) return fail("profile: lldp_src not a string");
        const auto sk = port_key_from_string(src.string);
        if (!sk) return fail("profile: bad lldp_src \"" + src.string + "\"");
        p.lldp_srcs.insert(*sk);
      }
    }
    profile.ports[*key] = std::move(p);
  }
  if (const minijson::Value* durs = doc->get("durations");
      durs != nullptr && durs->is_array()) {
    for (const auto& entry : durs->array) {
      if (!entry.is_object()) {
        return fail("profile: duration entry not an object");
      }
      const std::string kind = entry.get_string("kind");
      if (kind.empty()) return fail("profile: duration entry without kind");
      DurationEnvelope d;
      d.count = entry.get_u64("count");
      d.p50_ns = entry.get_number("p50_ns");
      d.p90_ns = entry.get_number("p90_ns");
      d.p99_ns = entry.get_number("p99_ns");
      d.max_ns = entry.get_number("max_ns");
      profile.durations[kind] = d;
    }
  }
  return profile;
}

// ---------------------------------------------------------------------
// Featurization (the DESIGN.md §14 contract)
// ---------------------------------------------------------------------

std::optional<FeaturizedInstant> featurize_ctrl_instant(
    const std::string& name, const std::string& detail,
    const std::string& loc) {
  FeaturizedInstant out;
  const auto with_loc = [&](Symbol s) -> std::optional<FeaturizedInstant> {
    const auto key = port_key_from_string(loc);
    if (!key) return std::nullopt;
    if ((*key & 0xffff) >= kReservedPortFloor) return std::nullopt;
    out.symbol = s;
    out.ports[0] = *key;
    out.port_count = 1;
    return out;
  };
  if (name == "PACKET_IN") {
    if (starts_with(detail, "ARP ")) {
      // Requests resolving the controller's identity are answered (and
      // stopped) by the core listener; the anomaly slot never sees them.
      if (starts_with(detail, "ARP who-has ") &&
          ends_with(detail, kControllerIpSuffix)) {
        return std::nullopt;
      }
      return with_loc(Symbol::PktArp);
    }
    if (starts_with(detail, "ICMP ")) {
      // Probe replies to the controller are consumed by the core.
      if (detail.find("echo-rep") != std::string::npos &&
          ends_with(detail, kControllerIpSuffix)) {
        return std::nullopt;
      }
      return with_loc(Symbol::PktIp);
    }
    if (starts_with(detail, "TCP ")) return with_loc(Symbol::PktIp);
    if (starts_with(detail, "LLDP ")) {
      auto f = with_loc(Symbol::PktLldp);
      if (!f) return std::nullopt;
      // "LLDP chassis=0x<hex> port=<dec>..." — the advertised source.
      const std::size_t chassis = detail.find("chassis=0x");
      const std::size_t port = detail.find(" port=");
      if (chassis != std::string::npos && port != std::string::npos) {
        char* end = nullptr;
        const unsigned long long dpid =
            std::strtoull(detail.c_str() + chassis + 10, &end, 16);
        const unsigned long p =
            std::strtoul(detail.c_str() + port + 6, nullptr, 10);
        if (end != detail.c_str() + chassis + 10 && p <= 0xffff) {
          f->lldp_src =
              stats::FlowStats::port_key(dpid, static_cast<std::uint16_t>(p));
        }
      }
      return f;
    }
    return with_loc(Symbol::PktOther);
  }
  if (name == "PORT_UP") return with_loc(Symbol::PortUp);
  if (name == "PORT_DOWN") return with_loc(Symbol::PortDown);
  if (name == "HOST_NEW") return with_loc(Symbol::HostNew);
  if (name == "HOST_MOVED") return with_loc(Symbol::HostMoved);
  if (name == "LINK_REMOVED") {
    // detail: "<a><-><b> (<reason>)" — attribute to both endpoints (the
    // online hook sees the whole topo::Link; the instant's loc names
    // only one side).
    const std::size_t sep = detail.find("<->");
    if (sep == std::string::npos) return std::nullopt;
    const std::size_t space = detail.find(' ', sep + 3);
    const auto a = port_key_from_string(detail.substr(0, sep));
    const auto b = port_key_from_string(
        space == std::string::npos ? detail.substr(sep + 3)
                                   : detail.substr(sep + 3, space - sep - 3));
    if (!a || !b) return std::nullopt;
    out.symbol = Symbol::LinkRemoved;
    out.ports[0] = *a;
    out.ports[1] = *b;
    out.port_count = 2;
    return out;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------
// ProfileTrainer
// ---------------------------------------------------------------------

ProfileTrainer::ProfileTrainer() = default;

void ProfileTrainer::begin_trial() {
  ++trials_;
  trial_max_ = sim::SimTime{};
  for (auto& [key, state] : ports_) {
    state.s1 = Symbol::Start;
    state.s2 = Symbol::Start;
    state.peak = std::max(state.peak, state.in_bucket);
    state.bucket = -1;
    state.in_bucket = 0;
  }
}

void ProfileTrainer::end_trial() {
  for (auto& [key, state] : ports_) {
    state.peak = std::max(state.peak, state.in_bucket);
    state.bucket = -1;
    state.in_bucket = 0;
  }
  total_seconds_ += trial_max_.to_seconds_f();
  trial_max_ = sim::SimTime{};
}

void ProfileTrainer::observe(PortKey port, Symbol s, sim::SimTime at) {
  PortState& state = ports_[port];
  state.acc.bigrams[bigram_key(state.s1, s)] += 1;
  state.acc.trigrams[trigram_key(state.s2, state.s1, s)] += 1;
  state.s2 = state.s1;
  state.s1 = s;
  state.acc.events += 1;
  ++events_;
  const std::int64_t bucket = at.count_nanos() / 1'000'000'000;
  if (bucket != state.bucket) {
    state.peak = std::max(state.peak, state.in_bucket);
    state.bucket = bucket;
    state.in_bucket = 0;
  }
  state.in_bucket += 1;
  state.peak = std::max(state.peak, state.in_bucket);
  rates_.record(port >> 16, port, 1);
  if (at.count_nanos() > trial_max_.count_nanos()) trial_max_ = at;
}

void ProfileTrainer::observe_lldp_src(PortKey dst_port, PortKey src_port) {
  ports_[dst_port].acc.lldp_srcs.insert(src_port);
}

void ProfileTrainer::observe_duration(const std::string& kind,
                                      std::uint64_t ns) {
  auto [it, inserted] = durations_.try_emplace(kind);
  DurationAcc& acc = it->second;
  const auto v = static_cast<double>(ns);
  acc.p50.add(v);
  acc.p90.add(v);
  acc.p99.add(v);
  acc.max_ns = std::max(acc.max_ns, v);
  acc.count += 1;
}

bool ProfileTrainer::add_trace_jsonl(const std::string& jsonl,
                                     std::string* error) {
  begin_trial();
  std::istringstream in{jsonl};
  std::string line;
  std::size_t lineno = 0;
  const auto bad_line = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + msg;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string parse_error;
    const auto rec = minijson::parse(line, &parse_error);
    if (!rec || !rec->is_object()) {
      return bad_line(parse_error.empty() ? "not a JSON object" : parse_error);
    }
    const std::string ph = rec->get_string("ph");
    const std::string cat = rec->get_string("cat");
    const minijson::Value* args = rec->get("args");
    if (ph == "instant" && cat == "ctrl") {
      const std::string name = rec->get_string("name");
      const std::string detail =
          args != nullptr ? args->get_string("detail") : "";
      const std::string loc = args != nullptr ? args->get_string("loc") : "";
      const auto f = featurize_ctrl_instant(name, detail, loc);
      if (!f) continue;
      const auto t_ns = to_nanos(rec->get_number("t_ns"));
      if (!t_ns) return bad_line("t_ns out of range");
      const auto at = sim::SimTime::from_nanos(*t_ns);
      for (std::size_t i = 0; i < f->port_count; ++i) {
        observe(f->ports[i], f->symbol, at);
      }
      if (f->lldp_src) observe_lldp_src(f->ports[0], *f->lldp_src);
      continue;
    }
    if (ph == "span" && cat == "lldp" && rec->get_string("name") == "rtt" &&
        args != nullptr && args->get_string("outcome") == "matched") {
      const minijson::Value* t1_value = rec->get("t1_ns");
      if (t1_value == nullptr || !t1_value->is_number()) continue;
      const auto t0 = to_nanos(rec->get_number("t0_ns"));
      const auto t1 = to_nanos(t1_value->number);
      if (!t0 || !t1) return bad_line("span time out of range");
      if (*t1 < *t0) continue;
      observe_duration("lldp.rtt", static_cast<std::uint64_t>(*t1) -
                                       static_cast<std::uint64_t>(*t0));
      const auto at = sim::SimTime::from_nanos(*t1);
      if (at.count_nanos() > trial_max_.count_nanos()) trial_max_ = at;
    }
  }
  end_trial();
  return true;
}

BehaviorProfile ProfileTrainer::finalize() const {
  BehaviorProfile profile;
  profile.trials = trials_;
  profile.events = events_;
  for (const auto& [key, state] : ports_) {
    PortProfile p = state.acc;
    p.peak_rate_per_s = std::max(state.peak, state.in_bucket);
    const stats::FlowStats::Cell* cell = rates_.find_port(key);
    const double open_span = trial_max_.to_seconds_f();
    const double seconds = total_seconds_ + open_span;
    p.mean_rate_per_s =
        cell != nullptr && seconds > 0.0
            ? static_cast<double>(cell->packets) / seconds
            : 0.0;
    profile.ports[key] = std::move(p);
  }
  for (const auto& [kind, acc] : durations_) {
    DurationEnvelope d;
    d.count = acc.count;
    if (acc.count > 0) {
      d.p50_ns = acc.p50.value();
      d.p90_ns = acc.p90.value();
      d.p99_ns = acc.p99.value();
      d.max_ns = acc.max_ns;
    }
    profile.durations[kind] = d;
  }
  return profile;
}

}  // namespace tmg::ids
