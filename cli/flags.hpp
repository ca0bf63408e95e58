// Command-line front end of every example and bench (DESIGN.md §7c).
// A binary declares a table of only the flags it honours; parse()
// rejects anything else with an error naming the argument at fault.
// Value flags take `--f V` or `--f=V`; a value is never empty and a
// split value never starts with `--`. Unknown flags, stray positionals,
// repeated flags and switches given a value are errors. parse() is pure;
// die() is the only place that exits (status 2). Standard
// library only: table data such as the profile names is passed in.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tmg::cli {

enum class Kind {
  kSwitch,  // present or absent, never given a value
  kValue,   // any non-empty text
  kCount,   // digits only, in range (parse_jobs_value)
  kChoice,  // one of Flag::choices
};

struct Flag {
  Flag(std::string n, Kind k = Kind::kSwitch, std::vector<std::string> c = {})
      : name{std::move(n)}, kind{k}, choices{std::move(c)} {}

  std::string name;  // with the leading "--"
  Kind kind;
  std::vector<std::string> choices;
};

using Table = std::vector<Flag>;

/// `table` followed by each of `more`: one binary's flag sets joined.
Table join(Table table, std::initializer_list<Table> more);

/// The flags one command line set: name -> value ("" for a switch).
struct Args {
  std::map<std::string, std::string, std::less<>> values;

  [[nodiscard]] bool has(std::string_view flag) const;
  [[nodiscard]] std::string value(std::string_view flag) const;  // "" if absent
  [[nodiscard]] std::size_t count(std::string_view flag) const;  // 0 if absent
};

struct ParseResult {
  Args args;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return error.empty(); }
};

[[nodiscard]] ParseResult parse(const Table& table, int argc,
                                const char* const* argv);

/// parse(), turning a failure into die(error).
Args parse_or_die(const Table& table, int argc, const char* const* argv);

/// "error: <message>" on stderr, then exit 2: a rejected command line,
/// including a flag value the binary finds invalid after parsing.
[[noreturn]] void die(const std::string& message);

/// A count: digits only (no sign, space or suffix), in range of
/// std::size_t; nullopt otherwise, including for nullptr and "".
[[nodiscard]] std::optional<std::size_t> parse_jobs_value(const char* text);

}  // namespace tmg::cli
