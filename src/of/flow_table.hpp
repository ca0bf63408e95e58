// Switch flow table: priority-ordered rules with counters and timeouts.
//
// One vector, sorted by descending priority (stable for ties), scanned
// linearly by every operation. Tables in the simulated networks stay
// small (about 29 rules per switch on a k=8 fat-tree under background
// traffic), and at that size a dst-MAC index plus an expiry heap
// measured slower end to end than the scan they shortcut; see
// DESIGN.md §8b.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "of/messages.hpp"
#include "sim/time.hpp"

namespace tmg::of {

struct FlowEntry {
  std::uint64_t cookie = 0;
  FlowMatch match;
  FlowAction action;
  std::uint16_t priority = 100;
  sim::Duration idle_timeout = sim::Duration::zero();
  sim::Duration hard_timeout = sim::Duration::zero();
  bool notify_on_removal = true;

  // Counters / bookkeeping.
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  sim::SimTime installed_at;
  sim::SimTime last_matched_at;
};

/// Reason a sweep removed an entry.
struct ExpiredEntry {
  FlowEntry entry;
  FlowRemoved::Reason reason = FlowRemoved::Reason::IdleTimeout;
};

class FlowTable {
 public:
  /// Install (or replace an identical-match, identical-priority) entry.
  void add(FlowEntry entry, sim::SimTime now);

  /// Remove all entries whose match equals `match` exactly. Returns the
  /// removed entries.
  std::vector<FlowEntry> remove_matching(const FlowMatch& match);

  /// Find the highest-priority entry matching the packet; updates its
  /// counters and last-match time. Returns nullptr on table miss.
  FlowEntry* lookup(const net::Packet& pkt, PortNo in_port, sim::SimTime now);

  /// Highest-priority entry that matches the packet AND explicitly pins
  /// match.ethertype to LLDP; counters update only on such a hit.
  /// Entries with a wildcard or different ethertype are invisible here,
  /// so pre-existing rules can never start capturing LLDP — only a rule
  /// deliberately installed against 0x88cc overrides the controller
  /// punt (the flow-rule-relay attack surface; see Switch::on_rx).
  FlowEntry* lookup_lldp_override(const net::Packet& pkt, PortNo in_port,
                                  sim::SimTime now);

  /// Cheap gate for the override path: any entry pinned to LLDP?
  [[nodiscard]] bool has_lldp_rule() const { return lldp_rules_ > 0; }

  /// Remove and return entries whose idle/hard timeout elapsed at `now`.
  std::vector<ExpiredEntry> expire(sim::SimTime now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const {
    return entries_;
  }

  void clear();

  /// Invariant audit: the table must be priority-sorted (what makes the
  /// first scan hit the highest-priority match) and the LLDP gate must
  /// equal a recount of LLDP-pinned rules. Returns a sorted list of
  /// violations.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  // Kept sorted by descending priority (stable for equal priorities).
  std::vector<FlowEntry> entries_;
  // Live entries with match.ethertype == LLDP (override-path gate).
  std::size_t lldp_rules_ = 0;
};

}  // namespace tmg::of
