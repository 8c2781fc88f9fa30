#include "sim/trace.h"

#include <map>
#include <sstream>

namespace ermes::sim {

namespace {

// VCD identifier codes: printable ASCII starting at '!'.
std::string vcd_id(int index) {
  std::string id;
  int value = index;
  do {
    id += static_cast<char>('!' + value % 94);
    value /= 94;
  } while (value > 0);
  return id;
}

std::string bits(std::int32_t value, int width) {
  std::string text(static_cast<std::size_t>(width), '0');
  for (int b = 0; b < width; ++b) {
    if ((value >> b) & 1) {
      text[static_cast<std::size_t>(width - 1 - b)] = '1';
    }
  }
  return text;
}

}  // namespace

Tracer::Tracer(const sysmodel::SystemModel& sys,
               CompiledSim::Instance& instance)
    : instance_(instance) {
  for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    process_names_.push_back(sys.process_name(p));
  }
  for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
    channel_names_.push_back(sys.channel_name(c));
  }
  instance_.set_observer(this);
}

Tracer::~Tracer() {
  if (instance_.observer() == this) instance_.set_observer(nullptr);
}

void Tracer::on_status(std::int64_t time, SimProcessId p,
                       ProcessStatus status) {
  events_.push_back({time, TraceEvent::Kind::kProcessState, p,
                     static_cast<std::int32_t>(status)});
}

void Tracer::on_occupancy(std::int64_t time, SimChannelId c,
                          std::int64_t level) {
  events_.push_back({time, TraceEvent::Kind::kChannelOccupancy, c,
                     static_cast<std::int32_t>(level)});
}

std::string Tracer::to_vcd(const std::string& timescale) const {
  return render_vcd(events_, process_names_, channel_names_, timescale);
}

std::string render_vcd(const std::vector<TraceEvent>& events,
                       const std::vector<std::string>& process_names,
                       const std::vector<std::string>& channel_names,
                       const std::string& timescale) {
  std::ostringstream out;
  out << "$date ERMES simulation $end\n";
  out << "$version ermes::sim::Tracer $end\n";
  out << "$timescale " << timescale << " $end\n";

  // Declarations: processes then channels, each with a stable id code.
  out << "$scope module system $end\n";
  const int n_procs = static_cast<int>(process_names.size());
  const int n_chans = static_cast<int>(channel_names.size());
  for (SimProcessId p = 0; p < n_procs; ++p) {
    out << "$var wire 2 " << vcd_id(p) << " proc_"
        << process_names[static_cast<std::size_t>(p)] << " $end\n";
  }
  for (SimChannelId c = 0; c < n_chans; ++c) {
    out << "$var wire 8 " << vcd_id(n_procs + c) << " chan_"
        << channel_names[static_cast<std::size_t>(c)] << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";

  // Initial values.
  out << "$dumpvars\n";
  for (SimProcessId p = 0; p < n_procs; ++p) {
    out << "b00 " << vcd_id(p) << "\n";
  }
  for (SimChannelId c = 0; c < n_chans; ++c) {
    out << "b00000000 " << vcd_id(n_procs + c) << "\n";
  }
  out << "$end\n";

  // Value changes grouped by time; last write per signal at an instant wins.
  std::int64_t current_time = -1;
  std::map<int, std::pair<std::int32_t, int>> pending;  // code -> (value, width)
  auto flush = [&] {
    for (const auto& [code, vw] : pending) {
      out << "b" << bits(vw.first, vw.second) << " " << vcd_id(code) << "\n";
    }
    pending.clear();
  };
  for (const TraceEvent& event : events) {
    if (event.time != current_time) {
      flush();
      current_time = event.time;
      out << "#" << current_time << "\n";
    }
    if (event.kind == TraceEvent::Kind::kProcessState) {
      pending[event.index] = {event.value & 0b11, 2};
    } else {
      pending[n_procs + event.index] = {event.value & 0xff, 8};
    }
  }
  flush();
  return out.str();
}

}  // namespace ermes::sim
