// Shared helpers for the reproduction benches: banner/table printing,
// plus the command-line front end every bench parses its argv with.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "cli/flags.hpp"

namespace tmg::bench {

inline void banner(const char* id, const char* title) {
  std::printf("\n");
  std::printf(
      "======================================================================"
      "\n");
  std::printf("%s — %s\n", id, title);
  std::printf(
      "======================================================================"
      "\n");
}

inline void section(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

/// Fixed-width table printer: pass rows of equal-length cell vectors.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_{std::move(header)} {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) {
      widths[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    print_row(header_, widths);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      rule += std::string(widths[c] + 2, '-');
      if (c + 1 < widths.size()) rule += "+";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row, widths);
  }

 private:
  static void print_row(const std::vector<std::string>& row,
                        const std::vector<std::size_t>& widths) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size() + 1, ' ');
      if (c + 1 < row.size()) line += "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

inline std::string yes_no(bool b) { return b ? "yes" : "no"; }

}  // namespace tmg::bench
