#include "sim/stall_report.h"

#include <algorithm>
#include <sstream>

#include "util/table.h"

namespace ermes::sim {

namespace {

std::string percent_of(std::int64_t part, std::int64_t whole) {
  if (whole <= 0) return "0";
  return util::format_double(100.0 * static_cast<double>(part) /
                                 static_cast<double>(whole),
                             1) +
         "%";
}

}  // namespace

std::string StallReport::to_text(int indent) const {
  util::Table procs({"process", "ready", "computing", "waiting",
                     "transferring", "waiting %"});
  for (const ProcessStall& p : processes) {
    procs.add_row({p.name, std::to_string(p.ready),
                   std::to_string(p.computing), std::to_string(p.waiting),
                   std::to_string(p.transferring),
                   percent_of(p.waiting, p.total())});
  }

  // Worst waiters first: channels ranked by total wait time.
  std::vector<const ChannelStall*> ranked;
  ranked.reserve(channels.size());
  for (const ChannelStall& c : channels) ranked.push_back(&c);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ChannelStall* a, const ChannelStall* b) {
                     return a->put_wait_cycles + a->get_wait_cycles >
                            b->put_wait_cycles + b->get_wait_cycles;
                   });

  util::Table chans({"channel", "transfers", "blocked puts", "blocked gets",
                     "put wait", "get wait", "mean put wait", "mean get wait",
                     "peak occ"});
  for (const ChannelStall* c : ranked) {
    chans.add_row({c->name, std::to_string(c->transfers),
                   std::to_string(c->blocked_puts),
                   std::to_string(c->blocked_gets),
                   std::to_string(c->put_wait_cycles),
                   std::to_string(c->get_wait_cycles),
                   util::format_double(c->put_wait.mean()),
                   util::format_double(c->get_wait.mean()),
                   std::to_string(c->peak_occupancy)});
  }

  std::ostringstream out;
  std::string pad(static_cast<std::size_t>(indent), ' ');
  out << pad << "stall accounting over " << cycles << " cycles\n"
      << procs.to_text(indent);
  if (!channels.empty()) out << '\n' << chans.to_text(indent);
  return out.str();
}

}  // namespace ermes::sim
