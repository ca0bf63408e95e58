// The command-line front end (cli/flags.hpp) and the flag tables the
// benches and examples declare with it. Each case is one argv against a
// real flag set; the rules are the same for every binary, so a case
// pins a rule, not a binary. tests/cli_fuzz_test.cpp draws random
// command lines over the same tables.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "../examples/example_util.hpp"
#include "bench_harness.hpp"
#include "cli/flags.hpp"

namespace tmg::cli {
namespace {

/// argv for `args`, with a program name in front.
std::vector<const char*> argv_of(const std::vector<const char*>& args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

ParseResult parse_args(const Table& table,
                       const std::vector<const char*>& args) {
  const std::vector<const char*> argv = argv_of(args);
  return parse(table, static_cast<int>(argv.size()), argv.data());
}

Table harness_base() { return bench::harness_flags({bench::trials_flag()}); }

Table harness_with_obs() {
  return bench::harness_flags({bench::trials_flag(), bench::obs_flags()});
}

Table example_set() {
  return examples::example_flags({examples::profile_flag(),
                                  examples::modules_flag(),
                                  examples::jobs_flag()});
}

// ---------------------------------------------------------------------
// Count values: digits only, in range (moved with parse_jobs_value).
// ---------------------------------------------------------------------

TEST(ParseJobsTest, AcceptsPlainNonNegativeIntegers) {
  struct Case {
    const char* text;
    std::size_t value;
  };
  for (const Case& c : {Case{"0", 0}, Case{"1", 1}, Case{"8", 8},
                        Case{"64", 64}, Case{"007", 7}}) {
    EXPECT_EQ(parse_jobs_value(c.text), c.value) << c.text;
  }
}

TEST(ParseJobsTest, RejectsMalformedValues) {
  EXPECT_FALSE(parse_jobs_value(nullptr).has_value());
  // 2^64 overflows: must be rejected, not wrapped.
  for (const char* text : {"", "abc", "-1", "+4", "4x", "4 ", " 4", "1e3",
                           "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_jobs_value(text).has_value()) << "'" << text << "'";
  }
}

TEST(ParseJobsTest, ParsesBothFlagSpellings) {
  struct Case {
    std::vector<const char*> args;
    std::size_t jobs;
  };
  for (const Case& c : {Case{{"--jobs=8"}, 8}, Case{{"--jobs", "3"}, 3},
                        Case{{"--trials", "10"}, 0}}) {
    const ParseResult r = parse_args(harness_base(), c.args);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.args.count("--jobs"), c.jobs);
  }
}

TEST(ParseJobsTest, TrailingJobsFlagExitsNamingIt) {
  const std::vector<const char*> argv =
      argv_of({"--trials", "1", "--jobs"});
  EXPECT_EXIT(parse_or_die(harness_base(), static_cast<int>(argv.size()),
                           argv.data()),
              ::testing::ExitedWithCode(2), "error: --jobs expects a value");
}

// ---------------------------------------------------------------------
// The bench harness sets.
// ---------------------------------------------------------------------

TEST(ParseHarnessArgsTest, TrailingValueFlagExitsNamingIt) {
  // A value-taking flag as the last argument must fail loudly: a
  // dropped --trace-out would write no file while the bench exits 0.
  for (const char* flag : {"--trials", "--jobs", "--obs-out", "--trace-out"}) {
    std::vector<const char*> argv = argv_of({"--quick", flag});
    EXPECT_EXIT(bench::parse_harness_args(
                    static_cast<int>(argv.size()),
                    const_cast<char**>(argv.data()),
                    {bench::trials_flag(), bench::obs_flags()}),
                ::testing::ExitedWithCode(2),
                std::string{flag} + " expects a value")
        << flag;
  }
}

TEST(ParseHarnessArgsTest, ParsesValueFlagsInBothSpellings) {
  std::vector<const char*> argv =
      argv_of({"--trials", "7", "--obs-out", "m.json", "--trace-out=t.jsonl",
               "--jobs", "2"});
  const bench::HarnessOptions opts = bench::parse_harness_args(
      static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
      {bench::trials_flag(), bench::obs_flags()});
  EXPECT_EQ(opts.trials, 7u);
  EXPECT_EQ(opts.jobs, 2u);
  EXPECT_EQ(opts.obs_out_path, "m.json");
  EXPECT_EQ(opts.trace_out_path, "t.jsonl");
  EXPECT_TRUE(opts.observed());  // the exports trigger the observed re-run
  EXPECT_FALSE(opts.quick);
}

TEST(ParseHarnessArgsTest, AbsentFlagsKeepTheDefaults) {
  const ParseResult r = parse_args(harness_with_obs(), {});
  ASSERT_TRUE(r.ok()) << r.error;
  const bench::HarnessOptions opts = bench::harness_options(r.args);
  EXPECT_EQ(opts.trials, 0u);
  EXPECT_EQ(opts.jobs, 0u);
  EXPECT_FALSE(opts.quick);
  EXPECT_FALSE(opts.observed());
  EXPECT_TRUE(opts.trace_out_path.empty());
  EXPECT_EQ(opts.trial_count(100, 10), 100u);
}

// ---------------------------------------------------------------------
// The example sets.
// ---------------------------------------------------------------------

TEST(ProfileNames, ExampleParseProfileValue) {
  // --profile is a choice over ctrl::profile_cli_names(), in both
  // spellings; anything else is rejected with the valid names listed.
  for (const char* spelling : {"--profile=onos", "--profile"}) {
    std::vector<const char*> argv = argv_of({spelling});
    if (std::string{spelling} == "--profile") argv.push_back("onos");
    const examples::ExampleArgs args = examples::parse_example_args(
        static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
        {examples::profile_flag(), examples::modules_flag(),
         examples::jobs_flag()});
    ASSERT_TRUE(args.profile.has_value()) << spelling;
    EXPECT_EQ(args.profile->name, "ONOS");
  }
  const ParseResult bad = parse_args(example_set(), {"--profile=neutron"});
  EXPECT_EQ(bad.error,
            "unknown --profile 'neutron' (valid: floodlight pox "
            "opendaylight onos)");
  EXPECT_EQ(parse_args(example_set(), {"--profile="}).error,
            "--profile expects a value");
}

TEST(ExampleArgsTest, SplitObsOutFillsTheDirectory) {
  // `--obs-out DIR` used to be dropped silently: exit 0, nothing written.
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--obs-out", "out/dir"},
        std::vector<const char*>{"--obs-out=out/dir"}}) {
    std::vector<const char*> argv = argv_of(args);
    const examples::ExampleArgs parsed = examples::parse_example_args(
        static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
        {examples::profile_flag(), examples::modules_flag(),
         examples::jobs_flag()});
    EXPECT_EQ(parsed.obs_out, "out/dir");
    EXPECT_TRUE(parsed.obs_enabled());
  }
}

TEST(ExampleArgsTest, ModulesAndJobs) {
  std::vector<const char*> argv =
      argv_of({"--modules", "list,+SPHINX,-LLI", "--jobs=3", "--check"});
  const examples::ExampleArgs args = examples::parse_example_args(
      static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
      {examples::profile_flag(), examples::modules_flag(),
       examples::jobs_flag()});
  EXPECT_TRUE(args.list_modules);
  EXPECT_EQ(args.enable_modules, std::vector<std::string>{"SPHINX"});
  EXPECT_EQ(args.disable_modules, std::vector<std::string>{"LLI"});
  EXPECT_EQ(args.jobs, 3u);
  EXPECT_TRUE(args.check);
  EXPECT_FALSE(args.pipeline_stats);
}

TEST(ExampleArgsTest, MalformedModulesTokenExitsAtParseTime) {
  // Used to warn and carry on with the default chain, exit 0.
  const std::vector<const char*> argv =
      argv_of({"--modules=foo,+NoSuchListener"});
  EXPECT_EXIT((void)examples::parse_example_args(
                  static_cast<int>(argv.size()),
                  const_cast<char**>(argv.data()), {examples::modules_flag()}),
              ::testing::ExitedWithCode(2),
              "error: --modules token 'foo' is not 'list'");
}

TEST(ExampleArgsTest, UnknownModulesListenerExitsOnceTheChainIsBuilt) {
  // A well-formed name is checked against the assembled chain: a known
  // listener flips, an unknown one exits 2 instead of warning.
  const std::vector<const char*> argv =
      argv_of({"--modules", "-routing,+NoSuchListener"});
  const examples::ExampleArgs args = examples::parse_example_args(
      static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
      {examples::modules_flag()});
  EXPECT_EXIT(
      {
        scenario::Testbed tb{scenario::TestbedOptions{}};
        examples::apply_modules(tb.controller(), args);
      },
      ::testing::ExitedWithCode(2),
      "error: --modules: no listener named 'NoSuchListener'");
  examples::ExampleArgs known;
  known.disable_modules = {"routing"};
  scenario::Testbed tb{scenario::TestbedOptions{}};
  examples::apply_modules(tb.controller(), known);
  EXPECT_FALSE(tb.controller().pipeline().is_enabled("routing"));
}

// ---------------------------------------------------------------------
// Rejections: each argv below exited 0 before the flag tables, with the
// flag ignored or misread.
// ---------------------------------------------------------------------

struct Rejection {
  const char* what;
  Table table;
  std::vector<const char*> args;
  std::string error;
};

TEST(CliRejects, EveryIgnoredOrMisreadFlag) {
  const Table table1 = harness_base();          // bench_table1_probes
  const Table montecarlo = harness_with_obs();  // bench_montecarlo
  const Table scan_lab = examples::example_flags({examples::jobs_flag()});
  const Table amnesia = examples::example_flags({examples::profile_flag()});
  const std::vector<Rejection> cases = {
      {"value consumed twice", montecarlo, {"--trace-out", "--quick"},
       "--trace-out expects a value"},
      {"export flag on a bench that observes nothing", table1,
       {"--quick", "--trace-out", "F"}, "unknown flag '--trace-out'"},
      {"--profile on an example that ignores it", scan_lab,
       {"--profile=onos"}, "unknown flag '--profile'"},
      {"--modules on an example that does not own the controller", amnesia,
       {"--modules=list"}, "unknown flag '--modules'"},
      {"any flag on a bench that takes none", Table{},
       {"--trace-out", "f.jsonl"},
       "unknown flag '--trace-out' (this program takes no flags)"},
      {"typo", table1, {"--trails", "3"}, "unknown flag '--trails'"},
      {"repeated flag", table1, {"--jobs", "1", "--jobs", "3"},
       "--jobs given twice"},
      {"switch given a value", table1, {"--quick=1"},
       "--quick takes no value"},
      {"empty joined value", montecarlo, {"--trace-out="},
       "--trace-out expects a value"},
      {"empty split value", montecarlo, {"--trace-out", ""},
       "--trace-out expects a value"},
      {"stray positional", table1, {"--quick", "extra"},
       "unexpected argument 'extra'"},
      {"malformed count", table1, {"--trials", "4x"},
       "invalid --trials value '4x' (expected a non-negative integer)"},
  };
  for (const Rejection& c : cases) {
    const ParseResult r = parse_args(c.table, c.args);
    EXPECT_FALSE(r.ok()) << c.what;
    EXPECT_EQ(r.error.rfind(c.error, 0), 0u)
        << c.what << ": got '" << r.error << "'";
  }
}

TEST(CliRejects, UnknownFlagListsTheAcceptedOnes) {
  EXPECT_EQ(parse_args(harness_with_obs(), {"--chek"}).error,
            "unknown flag '--chek' (accepted: --jobs --quick --trials "
            "--obs-out --trace-out)");
}

TEST(CliParseOrDie, ExitsTwoOnlyOnError) {
  const std::vector<const char*> bad = argv_of({"--no-such-flag"});
  EXPECT_EXIT(parse_or_die(Table{}, static_cast<int>(bad.size()), bad.data()),
              ::testing::ExitedWithCode(2),
              "error: unknown flag '--no-such-flag'");
  const std::vector<const char*> good =
      argv_of({"--quick", "--trace-out=x"});
  const Args args = parse_or_die(harness_with_obs(),
                                 static_cast<int>(good.size()), good.data());
  EXPECT_TRUE(args.has("--quick"));
  EXPECT_EQ(args.value("--trace-out"), "x");
  EXPECT_FALSE(args.has("--jobs"));
  EXPECT_EQ(args.value("--jobs"), "");
  EXPECT_EQ(args.count("--jobs"), 0u);
}

TEST(CliParse, JoinedValueKeepsEverythingAfterTheFirstEquals) {
  const ParseResult r =
      parse_args(harness_with_obs(), {"--trace-out=a=b", "--jobs", "0"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.args.value("--trace-out"), "a=b");
  EXPECT_EQ(r.args.value("--jobs"), "0");
}

}  // namespace
}  // namespace tmg::cli
