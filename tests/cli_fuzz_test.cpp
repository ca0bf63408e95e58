// Seeded mutation fuzzer for the command-line front end (cli/flags.hpp),
// drawn over the real flag tables: the bench harness base set, the
// harness with the observability exports, bench_attack_matrix's full
// table, and the union of the example sets.
//
// Each iteration draws a random valid assignment (a subset of the
// table's flags, each with a valid value), renders every flag in a
// random spelling (`--f V` or `--f=V`) and shuffles the order. The parse
// must equal the assignment. Then one mutation breaks the command line
// and the parse must fail with a message naming the flag at fault:
//   - drop the trailing element (a split value)
//   - an empty joined value (`--f=`)
//   - a value on a switch (`--quick=V`)
//   - a repeated flag
//   - an unknown flag or a stray positional
//   - a malformed count (`-1`, `4x`, `0x10`, 2^64)
//   - a split value that starts with `--`
// Every argv string is parsed from an exactly-sized heap buffer, so a
// read past its terminator is an AddressSanitizer report under the
// asan-ubsan preset. The iteration budget is fixed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../examples/example_util.hpp"
#include "bench_harness.hpp"
#include "cli/flags.hpp"
#include "sim/rng.hpp"

namespace tmg::cli {
namespace {

constexpr int kIterationsPerSeed = 5000;

using Assignment = std::map<std::string, std::string, std::less<>>;

struct NamedTable {
  const char* name;
  Table table;
};

const std::vector<NamedTable>& tables() {
  static const std::vector<NamedTable> kTables = {
      {"harness", bench::harness_flags({bench::trials_flag()})},
      {"harness+obs",
       bench::harness_flags({bench::trials_flag(), bench::obs_flags()})},
      {"bench_attack_matrix",
       bench::harness_flags({bench::trials_flag(), bench::obs_flags(),
                             bench::attack_matrix_flags()})},
      {"examples",
       examples::example_flags({examples::profile_flag(),
                                examples::modules_flag(),
                                examples::jobs_flag()})},
  };
  return kTables;
}

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Non-empty text that does not start with "--"; may hold '=' and ','.
std::string random_text(sim::Rng& rng) {
  static const char kChars[] = "abcxyzABC019/._-=,+ ";
  std::string s;
  const std::size_t len = 1 + pick(rng, 12);
  for (std::size_t i = 0; i < len; ++i) {
    s += kChars[pick(rng, sizeof(kChars) - 1)];
  }
  if (s.rfind("--", 0) == 0) s[0] = 'v';
  return s;
}

std::string random_value(sim::Rng& rng, const Flag& flag) {
  switch (flag.kind) {
    case Kind::kSwitch:
      return "";
    case Kind::kCount: {
      std::string digits = std::string(pick(rng, 3), '0');
      return digits + std::to_string(rng.uniform_int(0, 1'000'000));
    }
    case Kind::kChoice:
      return flag.choices[pick(rng, flag.choices.size())];
    case Kind::kValue:
      return random_text(rng);
  }
  return "";
}

/// One flag as it appears on the command line: one or two elements.
struct Group {
  std::string flag;
  std::vector<std::string> elems;
};

Group render(sim::Rng& rng, const Flag& flag, const std::string& value) {
  if (flag.kind == Kind::kSwitch) return {flag.name, {flag.name}};
  if (rng.chance(0.5)) return {flag.name, {flag.name + "=" + value}};
  return {flag.name, {flag.name, value}};
}

std::vector<std::string> flatten(const std::vector<Group>& groups) {
  std::vector<std::string> out;
  for (const Group& g : groups) {
    out.insert(out.end(), g.elems.begin(), g.elems.end());
  }
  return out;
}

/// Parse with every argv string in its own exactly-sized heap buffer.
ParseResult parse_exact(const Table& table,
                        const std::vector<std::string>& args) {
  std::vector<std::unique_ptr<char[]>> buffers;
  std::vector<const char*> argv;
  const auto add = [&](const std::string& s) {
    buffers.push_back(std::make_unique<char[]>(s.size() + 1));
    std::memcpy(buffers.back().get(), s.c_str(), s.size() + 1);
    argv.push_back(buffers.back().get());
  };
  add("prog");
  for (const std::string& a : args) add(a);
  return parse(table, static_cast<int>(argv.size()), argv.data());
}

/// Flags of `table` matching `want`.
std::vector<const Flag*> flags_where(
    const Table& table, const std::function<bool(const Flag&)>& want) {
  std::vector<const Flag*> out;
  for (const Flag& f : table) {
    if (want(f)) out.push_back(&f);
  }
  return out;
}

/// Put `g` in place of `flag`'s group (if any), at a random position.
void place(sim::Rng& rng, std::vector<Group>& groups, Group g) {
  std::erase_if(groups, [&](const Group& x) { return x.flag == g.flag; });
  groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(
                                     pick(rng, groups.size() + 1)),
                std::move(g));
}

struct Mutant {
  std::vector<std::string> args;
  std::string expected;  // must appear in the error
};

enum Mutation {
  kDropTrailing,
  kEmptyJoined,
  kValueOnSwitch,
  kDuplicate,
  kUnknownFlag,
  kPositional,
  kBadCount,
  kDashValue,
};
constexpr int kMutations = kDashValue + 1;

Mutant mutate(sim::Rng& rng, const Table& table, std::vector<Group> groups,
              Mutation m) {
  const auto valued =
      flags_where(table, [](const Flag& f) { return f.kind != Kind::kSwitch; });
  const auto switches =
      flags_where(table, [](const Flag& f) { return f.kind == Kind::kSwitch; });
  const auto counts =
      flags_where(table, [](const Flag& f) { return f.kind == Kind::kCount; });
  switch (m) {
    case kDropTrailing: {
      const Flag& f = *valued[pick(rng, valued.size())];
      std::erase_if(groups, [&](const Group& x) { return x.flag == f.name; });
      groups.push_back({f.name, {f.name, random_value(rng, f)}});
      std::vector<std::string> args = flatten(groups);
      args.pop_back();
      return {args, f.name + " expects a value"};
    }
    case kEmptyJoined: {
      const Flag& f = *valued[pick(rng, valued.size())];
      place(rng, groups, {f.name, {f.name + "="}});
      return {flatten(groups), f.name + " expects a value"};
    }
    case kValueOnSwitch: {
      const Flag& f = *switches[pick(rng, switches.size())];
      place(rng, groups, {f.name, {f.name + "=" + random_text(rng)}});
      return {flatten(groups), f.name + " takes no value"};
    }
    case kDuplicate: {
      const Flag& f = table[pick(rng, table.size())];
      std::erase_if(groups, [&](const Group& x) { return x.flag == f.name; });
      for (int copy = 0; copy < 2; ++copy) {
        Group g = render(rng, f, random_value(rng, f));
        groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(
                                           pick(rng, groups.size() + 1)),
                      std::move(g));
      }
      return {flatten(groups), f.name + " given twice"};
    }
    case kUnknownFlag: {
      std::string name = "--zz";
      const std::size_t len = pick(rng, 8);
      for (std::size_t i = 0; i < len; ++i) name += "abcdefgh-"[pick(rng, 9)];
      Group g{name, {rng.chance(0.5) ? name : name + "=" + random_text(rng)}};
      groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, groups.size() + 1)),
                    std::move(g));
      return {flatten(groups), "unknown flag '" + name + "'"};
    }
    case kPositional: {
      const std::string text = random_text(rng);
      groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, groups.size() + 1)),
                    Group{"", {text}});
      return {flatten(groups), "unexpected argument '" + text + "'"};
    }
    case kBadCount: {
      static const char* const kBad[] = {"-1", "4x", "0x10",
                                         "18446744073709551616"};
      const Flag& f = *counts[pick(rng, counts.size())];
      const std::string value = kBad[pick(rng, 4)];
      place(rng, groups, render(rng, f, value));
      return {flatten(groups),
              "invalid " + f.name + " value '" + value + "'"};
    }
    case kDashValue: {
      const Flag& f = *valued[pick(rng, valued.size())];
      place(rng, groups, {f.name, {f.name, "--" + random_text(rng)}});
      return {flatten(groups), f.name + " expects a value"};
    }
  }
  return {};
}

class CliMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CliMutationFuzz, ValidLinesParseToTheirAssignmentMutantsAreRejected) {
  sim::Rng rng{GetParam()};
  std::vector<int> seen(kMutations, 0);
  for (int iter = 0; iter < kIterationsPerSeed; ++iter) {
    const NamedTable& nt = tables()[pick(rng, tables().size())];
    Assignment assignment;
    std::vector<Group> groups;
    for (const Flag& f : nt.table) {
      if (!rng.chance(0.5)) continue;
      const std::string value = random_value(rng, f);
      assignment.emplace(f.name, value);
      groups.push_back(render(rng, f, value));
    }
    for (std::size_t i = groups.size(); i > 1; --i) {
      std::swap(groups[i - 1], groups[pick(rng, i)]);
    }

    const ParseResult valid = parse_exact(nt.table, flatten(groups));
    ASSERT_TRUE(valid.ok()) << nt.name << " iteration " << iter << ": "
                            << valid.error;
    ASSERT_EQ(valid.args.values, assignment)
        << nt.name << " iteration " << iter;

    const auto m = static_cast<Mutation>(pick(rng, kMutations));
    ++seen[m];
    const Mutant mutant = mutate(rng, nt.table, groups, m);
    const ParseResult bad = parse_exact(nt.table, mutant.args);
    ASSERT_FALSE(bad.ok()) << nt.name << " iteration " << iter
                           << " mutation " << m;
    ASSERT_NE(bad.error.find(mutant.expected), std::string::npos)
        << nt.name << " iteration " << iter << " mutation " << m
        << ": expected '" << mutant.expected << "', got '" << bad.error
        << "'";
  }
  for (int m = 0; m < kMutations; ++m) {
    EXPECT_GT(seen[m], kIterationsPerSeed / (4 * kMutations)) << "mutation "
                                                              << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliMutationFuzz,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tmg::cli
