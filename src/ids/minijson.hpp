// Minimal JSON reader for the anomaly IDS (DESIGN.md §14).
//
// The trainer consumes two JSON dialects the repo itself emits — the
// TraceLog's JSONL export and the BehaviorProfile interchange format —
// so this parser covers exactly RFC 8259 minus float exponent corner
// cases the exporters never produce. It exists because the tree has no
// external JSON dependency and the obs exporters are write-only; keep
// it boring and allocation-heavy, it only runs offline (training) or
// once at startup (profile load), never on a simulated hot path.
//
// Inputs are files, so nesting is capped at kMaxDepth: the parser
// recurses once per open bracket, and an unbounded document would
// exhaust the stack. The repo's own exports nest a few levels deep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tmg::ids::minijson {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(const std::string& key) const;
  /// Typed member shortcuts (fallback when absent / wrong type;
  /// get_u64 also when the number is outside [0, 2^64)).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback = "") const;
  [[nodiscard]] double get_number(const std::string& key,
                                  double fallback = 0.0) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback = 0) const;
};

/// Deepest array/object nesting parse() accepts; the top-level value
/// is depth 1.
inline constexpr std::size_t kMaxDepth = 64;

/// Parse one JSON document. On failure returns nullopt and, when
/// `error` is non-null, a one-line description with a byte offset.
std::optional<Value> parse(std::string_view text, std::string* error);

}  // namespace tmg::ids::minijson
