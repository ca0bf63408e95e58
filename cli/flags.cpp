#include "cli/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace tmg::cli {

namespace {

/// `what`, followed by the flags the table accepts.
std::string with_accepted(const Table& table, std::string what) {
  if (table.empty()) return what + " (this program takes no flags)";
  what += " (accepted:";
  for (const Flag& f : table) what += " " + f.name;
  return what + ")";
}

/// The error for a value flag given `value`; "" when it is acceptable.
std::string check_value(const Flag& flag, const std::string& value) {
  if (value.empty()) return flag.name + " expects a value";
  if (flag.kind == Kind::kCount && !parse_jobs_value(value.c_str())) {
    return "invalid " + flag.name + " value '" + value +
           "' (expected a non-negative integer)";
  }
  if (flag.kind != Kind::kChoice) return "";
  std::string names;
  for (const std::string& c : flag.choices) {
    if (c == value) return "";
    names += " " + c;
  }
  return "unknown " + flag.name + " '" + value + "' (valid:" + names + ")";
}

}  // namespace

Table join(Table table, std::initializer_list<Table> more) {
  for (const Table& t : more) table.insert(table.end(), t.begin(), t.end());
  return table;
}

bool Args::has(std::string_view flag) const {
  return values.find(flag) != values.end();
}

std::string Args::value(std::string_view flag) const {
  const auto it = values.find(flag);
  return it == values.end() ? std::string{} : it->second;
}

std::size_t Args::count(std::string_view flag) const {
  return parse_jobs_value(value(flag).c_str()).value_or(0);
}

ParseResult parse(const Table& table, int argc, const char* const* argv) {
  ParseResult r;
  for (int i = 1; i < argc && r.ok(); ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name{arg.substr(0, eq)};
    const auto flag =
        std::find_if(table.begin(), table.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (arg.substr(0, 2) != "--") {
      r.error = with_accepted(table, "unexpected argument '" +
                                         std::string{arg} + "'");
    } else if (flag == table.end()) {
      r.error = with_accepted(table, "unknown flag '" + name + "'");
    } else if (r.args.has(name)) {
      r.error = name + " given twice";
    } else if (flag->kind == Kind::kSwitch) {
      if (eq != std::string_view::npos) r.error = name + " takes no value";
      r.args.values.emplace(name, "");
    } else {
      std::string value;
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string_view{argv[i + 1]}.substr(0, 2) != "--") {
        value = argv[++i];  // the split value is consumed exactly once
      }
      r.error = check_value(*flag, value);
      r.args.values.emplace(name, std::move(value));
    }
  }
  return r;
}

Args parse_or_die(const Table& table, int argc, const char* const* argv) {
  ParseResult r = parse(table, argc, argv);
  if (!r.ok()) die(r.error);
  return std::move(r.args);
}

void die(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

std::optional<std::size_t> parse_jobs_value(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  // Digits only: reject signs, whitespace and unit suffixes outright
  // (strtoul would accept "-1" by wrapping it into a huge unsigned).
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  if (v > std::numeric_limits<std::size_t>::max()) return std::nullopt;
  return static_cast<std::size_t>(v);
}

}  // namespace tmg::cli
