#include "of/flow_table.hpp"

#include <algorithm>

namespace tmg::of {

namespace {

/// The match explicitly pins the LLDP ethertype (override-path gate).
bool pins_lldp(const FlowMatch& m) {
  return m.ethertype.has_value() && *m.ethertype == net::EtherType::Lldp;
}

/// Count a packet against the entry that matched it.
FlowEntry* record_hit(FlowEntry& e, const net::Packet& pkt,
                      sim::SimTime now) {
  ++e.packet_count;
  e.byte_count += pkt.wire_size();
  e.last_matched_at = now;
  return &e;
}

}  // namespace

void FlowTable::add(FlowEntry entry, sim::SimTime now) {
  entry.installed_at = now;
  entry.last_matched_at = now;
  // Replace an existing identical (match, priority) rule, as OpenFlow
  // does. Replacements pair on an equal match, so the LLDP gate only
  // moves on a genuine insert.
  for (auto& e : entries_) {
    if (e.priority == entry.priority && e.match == entry.match) {
      e = entry;
      return;
    }
  }
  const bool lldp = pins_lldp(entry.match);
  const auto pos = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const FlowEntry& e) { return e.priority < entry.priority; });
  entries_.insert(pos, std::move(entry));
  if (lldp) ++lldp_rules_;
}

FlowEntry* FlowTable::lookup_lldp_override(const net::Packet& pkt,
                                           PortNo in_port, sim::SimTime now) {
  if (lldp_rules_ == 0) return nullptr;
  for (auto& e : entries_) {
    if (pins_lldp(e.match) && e.match.matches(pkt, in_port)) {
      return record_hit(e, pkt, now);
    }
  }
  return nullptr;
}

std::vector<FlowEntry> FlowTable::remove_matching(const FlowMatch& match) {
  std::vector<FlowEntry> removed;
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if (it->match == match) {
      removed.push_back(*it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (pins_lldp(match)) lldp_rules_ -= removed.size();
  return removed;
}

FlowEntry* FlowTable::lookup(const net::Packet& pkt, PortNo in_port,
                             sim::SimTime now) {
  for (auto& e : entries_) {
    if (e.match.matches(pkt, in_port)) return record_hit(e, pkt, now);
  }
  return nullptr;
}

std::vector<ExpiredEntry> FlowTable::expire(sim::SimTime now) {
  std::vector<ExpiredEntry> expired;
  auto it = entries_.begin();
  while (it != entries_.end()) {
    const bool hard = it->hard_timeout > sim::Duration::zero() &&
                      now - it->installed_at >= it->hard_timeout;
    const bool idle = it->idle_timeout > sim::Duration::zero() &&
                      now - it->last_matched_at >= it->idle_timeout;
    if (hard || idle) {
      if (pins_lldp(it->match)) --lldp_rules_;
      expired.push_back(ExpiredEntry{
          *it, hard ? FlowRemoved::Reason::HardTimeout
                    : FlowRemoved::Reason::IdleTimeout});
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

void FlowTable::clear() {
  entries_.clear();
  lldp_rules_ = 0;
}

std::vector<std::string> FlowTable::audit() const {
  std::vector<std::string> issues;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i - 1].priority < entries_[i].priority) {
      issues.push_back("flow table not priority-sorted at position " +
                       std::to_string(i));
    }
  }
  const std::size_t lldp_actual = static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const FlowEntry& e) { return pins_lldp(e.match); }));
  if (lldp_actual != lldp_rules_) {
    issues.push_back("lldp rule gate " + std::to_string(lldp_rules_) +
                     " != recount " + std::to_string(lldp_actual));
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::of
