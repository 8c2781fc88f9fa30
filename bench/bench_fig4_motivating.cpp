// E1 — Reproduction of the motivating example (paper Sections 2-4,
// Figs. 2-4): the deadlocking order, the suboptimal order (CT 20,
// throughput 0.05), the algorithm's optimal order (CT 12, 40% better), the
// full forward/backward label table of Fig. 4(b), and the cross-check
// against the rendezvous simulator.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/deadlock.h"
#include "analysis/performance.h"
#include "ordering/channel_ordering.h"
#include "sim/system_sim.h"
#include "sysmodel/builder.h"
#include "util/str_cat.h"
#include "util/table.h"

using namespace ermes;
using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

std::string order_names(const SystemModel& sys,
                        const std::vector<ChannelId>& order) {
  std::string text = "(";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) text += ",";
    text += sys.channel_name(order[i]);
  }
  return text + ")";
}

void report_order(const char* label, SystemModel sys) {
  const analysis::PerformanceReport report = analysis::analyze_system(sys);
  const ProcessId p2 = sys.find_process("P2");
  const ProcessId p6 = sys.find_process("P6");
  std::printf("  %-28s P2 puts %-9s P6 gets %-9s -> ", label,
              order_names(sys, sys.output_order(p2)).c_str(),
              order_names(sys, sys.input_order(p6)).c_str());
  if (!report.live) {
    const analysis::DeadlockDiagnosis diag = analysis::diagnose_system(sys);
    std::printf("DEADLOCK: %s\n", analysis::to_string(diag, sys).c_str());
    return;
  }
  const sim::SystemSimResult simulated = sim::simulate_system(sys, 200);
  std::printf("CT %s (throughput %s), simulated %s\n",
              util::format_double(report.cycle_time).c_str(),
              util::format_double(report.throughput, 4).c_str(),
              util::format_double(simulated.measured_cycle_time).c_str());
}

}  // namespace

int main() {
  std::printf("== E1: DAC'14 motivating example (Figs. 2-4) ==\n\n");
  SystemModel base = sysmodel::make_dac14_motivating_example();
  std::printf("system: %d processes, %d channels, %s order combinations\n\n",
              base.num_processes(), base.num_channels(),
              util::format_double(base.num_order_combinations(), 0).c_str());

  std::printf("-- orderings (paper Section 2/4) --\n");
  {
    SystemModel sys = base;
    sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
    report_order("deadlock (Sec. 2)", sys);
  }
  {
    SystemModel sys = base;
    sysmodel::apply_motivating_orders(sys, {"f", "b", "d"}, {"e", "g", "d"});
    report_order("suboptimal (Sec. 4)", sys);
  }
  {
    SystemModel sys = base;
    sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"d", "g", "e"});
    report_order("paper-quoted optimum", sys);
  }
  {
    SystemModel sys = base;
    sysmodel::apply_motivating_orders(sys, {"f", "b", "d"}, {"e", "g", "d"});
    sys = ordering::with_optimal_ordering(sys);
    report_order("Algorithm 1 output", sys);
  }
  std::printf(
      "\npaper: suboptimal CT 20 (throughput 0.05); optimum CT 12 (40%% "
      "better)\n");

  // Fig. 4(b): labels. Use the paper's traversal order (P2 visits f,b,d).
  std::printf("\n-- Fig. 4(b) labels (weight, timestamp) --\n");
  SystemModel sys = base;
  sysmodel::apply_motivating_orders(sys, {"f", "b", "d"}, {"d", "e", "g"});
  const ordering::LabelingResult labels =
      ordering::forward_backward_labeling(sys);
  util::Table table({"channel", "head (fwd)", "tail (bwd)", "paper head",
                     "paper tail"});
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  const char* paper_head[] = {"(3,1)",  "(13,3)", "(17,6)", "(13,4)",
                              "(19,7)", "(13,2)", "(17,5)", "(22,8)"};
  const char* paper_tail[] = {"(23,8)", "(16,7)", "(13,6)", "(10,2)",
                              "(10,4)", "(13,5)", "(10,3)", "(2,1)"};
  for (int i = 0; i < 8; ++i) {
    const auto c = static_cast<std::size_t>(sys.find_channel(names[i]));
    table.add_row(
        {names[i],
         util::str_cat("(", labels.head_weight[c], ",",
                       labels.head_timestamp[c], ")"),
         util::str_cat("(", labels.tail_weight[c], ",",
                       labels.tail_timestamp[c], ")"),
         paper_head[i], paper_tail[i]});
  }
  std::printf("%s", table.to_text(2).c_str());

  // Fig. 4(c): final ordering.
  const ordering::ChannelOrderingResult final_order =
      ordering::channel_ordering(sys);
  const ProcessId p2 = sys.find_process("P2");
  const ProcessId p6 = sys.find_process("P6");
  std::printf("\n-- Fig. 4(c) final ordering --\n");
  std::printf("  P6 gets %s   (paper: (d,g,e))\n",
              order_names(sys, final_order.input_order[static_cast<std::size_t>(
                                   p6)])
                  .c_str());
  std::printf("  P2 puts %s   (paper: (b,f,d), tail weights 16,13,10)\n",
              order_names(sys, final_order.output_order[static_cast<std::size_t>(
                                   p2)])
                  .c_str());
  return 0;
}
