// Seeded, structure-aware mutation fuzzer for ids::minijson::parse and
// the two file readers built on it, BehaviorProfile::from_json and
// ProfileTrainer::add_trace_jsonl.
//
// The corpus is real: a traced testbed run's TraceLog JSONL export and
// the behavior profile trained from it. Each iteration takes a
// corpus document and stacks a few mutations on it: truncation, bit
// flips, bracket/quote splices, splices cut from other documents,
// escape sequences spliced into strings, and deep nesting around the
// whole document or one of its values. The
// mutated text is parsed from an exactly-sized heap buffer, so an
// out-of-bounds read is an AddressSanitizer report under the asan-ubsan
// preset. Invariants:
//   - an accepted document nests at most minijson::kMaxDepth deep, and
//     re-serializes to text that parses back to an equal value;
//   - a profile BehaviorProfile::from_json accepts re-serializes through
//     to_json() to a profile that parses back to the same bytes;
//   - a trace the trainer accepts yields such a profile too.
// The iteration budget is fixed, so the test runs in bounded time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ids/behavior_profile.hpp"
#include "ids/minijson.hpp"
#include "obs/observability.hpp"
#include "scenario/testbed.hpp"
#include "sim/rng.hpp"

namespace tmg::ids {
namespace {

using minijson::Value;

constexpr int kIterationsPerSeed = 5000;

enum class DocKind { Profile, JsonlLine, Trace };

struct Doc {
  DocKind kind;
  std::string text;
};

/// The corpus: the profile trained from a short traced testbed run
/// (discovery, ARP, a port flap, a host migration), single lines of the
/// run's JSONL export, and a multi-line excerpt of it (in that order).
const std::vector<Doc>& corpus() {
  static const std::vector<Doc> docs = [] {
    using namespace sim::literals;
    obs::Observability obs;
    scenario::Testbed tb{scenario::TestbedOptions{}};
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig c1;
    c1.mac = net::MacAddress::host(1);
    c1.ip = net::Ipv4Address::host(1);
    attack::Host& h1 = tb.add_host(0x1, 1, c1);
    attack::HostConfig c2;
    c2.mac = net::MacAddress::host(2);
    c2.ip = net::Ipv4Address::host(2);
    attack::Host& h2 = tb.add_host(0x2, 1, c2);
    of::DataLink& target = tb.add_access_link(0x2, 4);
    tb.set_observability(&obs);
    tb.start(1_s);
    h1.send_arp_request(h2.ip());
    h2.send_arp_request(h1.ip());
    tb.run_for(200_ms);
    h2.flap_interface(30_ms);
    tb.run_for(200_ms);
    scenario::migrate_host(tb, h1, target, 100_ms);
    tb.run_for(500_ms);
    const std::string jsonl = obs.trace().to_jsonl();

    ProfileTrainer trainer;
    std::string error;
    if (!trainer.add_trace_jsonl(jsonl, &error)) {
      ADD_FAILURE() << "corpus trace rejected: " << error;
    }
    std::vector<Doc> out;
    out.push_back({DocKind::Profile, trainer.finalize().to_json()});

    std::vector<std::string> lines;
    std::istringstream in{jsonl};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const std::size_t step = lines.size() / 48 + 1;
    for (std::size_t i = 0; i < lines.size(); i += step) {
      out.push_back({DocKind::JsonlLine, lines[i]});
    }
    std::string excerpt;
    for (std::size_t i = 0; i < lines.size() && i < 40; ++i) {
      excerpt += lines[i] + '\n';
    }
    out.push_back({DocKind::Trace, excerpt});
    return out;
  }();
  return docs;
}

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Offsets of structural characters: where splices keep the most
/// structure intact.
std::vector<std::size_t> structural_offsets(const std::string& text) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{' || c == '}' || c == '[' || c == ']' || c == '"' ||
        c == ',' || c == ':') {
      out.push_back(i);
    }
  }
  return out;
}

std::size_t pick_offset(sim::Rng& rng, const std::string& text) {
  const auto marks = structural_offsets(text);
  if (marks.empty() || rng.chance(0.25)) return pick(rng, text.size() + 1);
  return marks[pick(rng, marks.size())];
}

void mutate(sim::Rng& rng, std::string& text) {
  switch (rng.uniform_int(0, 6)) {
    case 0:  // truncation
      text.resize(pick(rng, text.size() + 1));
      return;
    case 1: {  // bit flip
      if (text.empty()) return;
      const std::size_t bit = pick(rng, text.size() * 8);
      text[bit / 8] = static_cast<char>(text[bit / 8] ^ (1 << (bit % 8)));
      return;
    }
    case 2: {  // bracket/quote splice: insert, drop or swap one
      static constexpr std::string_view kMarks = "{}[]\",:\\";
      const std::size_t at = pick_offset(rng, text);
      const char mark = kMarks[pick(rng, kMarks.size())];
      if (at < text.size() && rng.chance(0.5)) {
        text.erase(at, 1);
        if (rng.chance(0.5)) text.insert(at, 1, mark);
      } else {
        text.insert(at, 1, mark);
      }
      return;
    }
    case 3: {  // splice a structural slice of another document
      const std::string& donor = corpus()[pick(rng, corpus().size())].text;
      const std::size_t from = pick_offset(rng, donor);
      const std::size_t len = pick(rng, std::min<std::size_t>(
                                            donor.size() - from, 64) + 1);
      text.insert(pick_offset(rng, text), donor.substr(from, len));
      return;
    }
    case 4: {  // escape splice inside a string, maybe cut right after it
      static constexpr std::string_view kEscapes[] = {
          "\\", "\\u", "\\u00", "\\u00e9", "\\u01ff", "\\n", "\\\"",
          "\\x"};
      const std::size_t quote = text.find('"', pick(rng, text.size() + 1));
      const std::size_t at =
          quote == std::string::npos ? text.size() : quote + 1;
      const std::string_view esc = kEscapes[pick(rng, std::size(kEscapes))];
      text.insert(at, esc);
      if (rng.chance(0.5)) text.resize(at + esc.size());
      return;
    }
    default: {  // deep nesting, balanced or not, around a value
      const std::size_t depth = 1 + pick(rng, 2 * minijson::kMaxDepth);
      const bool arrays = rng.chance(0.5);
      const std::string open = arrays ? "[" : "{\"k\":";
      const std::string close = arrays ? "]" : "}";
      std::size_t closes = depth;
      if (rng.chance(0.2)) closes = pick(rng, depth + 2);
      std::string prefix, suffix;
      for (std::size_t i = 0; i < depth; ++i) prefix += open;
      for (std::size_t i = 0; i < closes; ++i) suffix += close;
      // Wrap the whole document, or the value that starts at a ':'.
      const std::size_t colon = text.find(':', pick(rng, text.size() + 1));
      if (colon == std::string::npos || rng.chance(0.3)) {
        text = prefix + text + suffix;
        return;
      }
      const std::size_t end = text.find_first_of(",}", colon);
      const std::size_t stop = end == std::string::npos ? text.size() : end;
      text.insert(stop, suffix);
      text.insert(colon + 1, prefix);
      return;
    }
  }
}

/// Parse from an exactly-sized heap copy, so a read past the end of the
/// input is a heap overflow rather than a read of string slack.
std::optional<Value> parse_exact(const std::string& text, std::string* error) {
  const auto buf = std::make_unique<char[]>(text.size());
  std::copy(text.begin(), text.end(), buf.get());
  return minijson::parse(std::string_view(buf.get(), text.size()), error);
}

std::size_t depth_of(const Value& v) {
  std::size_t inner = 0;
  for (const Value& e : v.array) inner = std::max(inner, depth_of(e));
  for (const auto& [k, m] : v.object) inner = std::max(inner, depth_of(m));
  const bool nests = v.is_array() || v.is_object();
  return inner + (nests ? 1 : 0);
}

void write_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Canonical JSON text of `v` (exact doubles; infinities as 1e999).
void write_value(std::string& out, const Value& v) {
  switch (v.kind) {
    case Value::Kind::Null: out += "null"; return;
    case Value::Kind::Bool: out += v.boolean ? "true" : "false"; return;
    case Value::Kind::Number: {
      if (std::isinf(v.number)) {
        out += v.number < 0 ? "-1e999" : "1e999";
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      out += buf;
      return;
    }
    case Value::Kind::String: write_string(out, v.string); return;
    case Value::Kind::Array:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) out += ',';
        write_value(out, v.array[i]);
      }
      out += ']';
      return;
    case Value::Kind::Object:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i != 0) out += ',';
        write_string(out, v.object[i].first);
        out += ':';
        write_value(out, v.object[i].second);
      }
      out += '}';
      return;
  }
}

bool equal(const Value& a, const Value& b) {
  if (a.kind != b.kind || a.boolean != b.boolean || a.string != b.string ||
      a.array.size() != b.array.size() || a.object.size() != b.object.size()) {
    return false;
  }
  if (a.number != b.number) return false;
  for (std::size_t i = 0; i < a.array.size(); ++i) {
    if (!equal(a.array[i], b.array[i])) return false;
  }
  for (std::size_t i = 0; i < a.object.size(); ++i) {
    if (a.object[i].first != b.object[i].first ||
        !equal(a.object[i].second, b.object[i].second)) {
      return false;
    }
  }
  return true;
}

/// An accepted profile re-serializes to JSON that parses back to the
/// same bytes.
void expect_profile_round_trip(const BehaviorProfile& p, int iter) {
  const std::string json = p.to_json();
  std::string error;
  const auto again = BehaviorProfile::from_json(json, &error);
  ASSERT_TRUE(again.has_value()) << "iteration " << iter << ": " << error;
  ASSERT_EQ(again->to_json(), json) << "iteration " << iter;
}

class MiniJsonMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MiniJsonMutationFuzz, AcceptedDocumentsRoundTrip) {
  const auto& docs = corpus();
  ASSERT_GT(docs.size(), 10u);
  for (const Doc& d : docs) {
    if (d.kind == DocKind::Trace) continue;
    std::string error;
    ASSERT_TRUE(parse_exact(d.text, &error).has_value()) << error;
  }

  sim::Rng rng{GetParam()};
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < kIterationsPerSeed; ++iter) {
    // A third each: the profile, a JSONL line, the trace excerpt.
    const std::int64_t kind = rng.uniform_int(0, 2);
    const Doc& base = kind == 0   ? docs.front()
                      : kind == 2 ? docs.back()
                                  : docs[1 + pick(rng, docs.size() - 2)];
    std::string text = base.text;
    const auto rounds = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < rounds; ++m) mutate(rng, text);

    if (base.kind == DocKind::Trace) {
      ProfileTrainer trainer;
      std::string error;
      if (trainer.add_trace_jsonl(text, &error)) {
        expect_profile_round_trip(trainer.finalize(), iter);
      } else {
        EXPECT_FALSE(error.empty()) << "iteration " << iter;
      }
      continue;
    }

    std::string error;
    const auto parsed = parse_exact(text, &error);
    if (!parsed) {
      ++rejected;
      ASSERT_NE(error.find(" at byte "), std::string::npos)
          << "iteration " << iter << ": " << error;
      continue;
    }
    ++accepted;
    ASSERT_LE(depth_of(*parsed), minijson::kMaxDepth) << "iteration " << iter;
    std::string canonical;
    write_value(canonical, *parsed);
    const auto reparsed = parse_exact(canonical, &error);
    ASSERT_TRUE(reparsed.has_value())
        << "iteration " << iter << ": " << error << "\n" << canonical;
    ASSERT_TRUE(equal(*reparsed, *parsed)) << "iteration " << iter;

    if (base.kind == DocKind::Profile) {
      if (const auto p = BehaviorProfile::from_json(text, &error)) {
        expect_profile_round_trip(*p, iter);
      }
    } else {
      ProfileTrainer trainer;
      if (trainer.add_trace_jsonl(text, &error)) {
        expect_profile_round_trip(trainer.finalize(), iter);
      }
    }
  }
  // The mutations must exercise both outcomes, or the fuzzer tests little.
  EXPECT_GT(accepted, kIterationsPerSeed / 20);
  EXPECT_GT(rejected, kIterationsPerSeed / 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiniJsonMutationFuzz,
                         ::testing::Values(1, 2, 3, 4));

// ---------------- nesting cap ----------------

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(MiniJsonNesting, MillionDeepDocumentIsRejected) {
  // Unbounded recursion used to exhaust the stack on this input.
  const std::string doc = nested_arrays(1'000'000);
  std::string error;
  EXPECT_FALSE(parse_exact(doc, &error).has_value());
  EXPECT_EQ(error, "nesting deeper than " +
                       std::to_string(minijson::kMaxDepth) + " at byte " +
                       std::to_string(minijson::kMaxDepth));
  error.clear();
  EXPECT_FALSE(BehaviorProfile::from_json(doc, &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos);
  ProfileTrainer trainer;
  error.clear();
  EXPECT_FALSE(trainer.add_trace_jsonl(doc + "\n", &error));
  EXPECT_NE(error.find("line 1: nesting deeper than"), std::string::npos)
      << error;
}

TEST(MiniJsonNesting, CapIsExact) {
  std::string error;
  EXPECT_TRUE(
      parse_exact(nested_arrays(minijson::kMaxDepth), &error).has_value())
      << error;
  EXPECT_FALSE(
      parse_exact(nested_arrays(minijson::kMaxDepth + 1), &error).has_value());
  // Objects count toward the same cap.
  std::string objects;
  for (std::size_t i = 0; i <= minijson::kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(minijson::kMaxDepth + 1, '}');
  error.clear();
  EXPECT_FALSE(parse_exact(objects, &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos);
}

}  // namespace
}  // namespace tmg::ids
