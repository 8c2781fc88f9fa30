#pragma once
// Functional MPEG-2-style pipeline on the simulation engine.
//
// Where topology.h models the paper's 26-process encoder at the performance
// level, this module wires *actual data-processing behaviors* (DCT,
// quantization, VLC, motion estimation, reconstruction loop) onto blocking
// channels and runs them on the cycle-accurate engine (sim::CompiledSim with
// a sim::BehaviorObserver carrying the payloads). The sink is a full
// decoder: it reconstructs the stream and reports PSNR against the source,
// so the run verifies functional correctness of the whole communication
// fabric (a deadlock or mis-ordered rendezvous shows up immediately).
//
// Granularity: one 8x8 luma block per loop iteration, raster order, with a
// previous-frame reference store closed through a primed feedback channel —
// the same structural hazard the paper's case study exhibits.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/behavior.h"
#include "sysmodel/system.h"

namespace ermes::mpeg2 {

struct PipelineConfig {
  std::int32_t width = 64;    // multiple of 8
  std::int32_t height = 48;   // multiple of 8
  std::int32_t frames = 4;
  int qscale = 4;             // quantizer scale [1, 31]
  std::int32_t search_range = 4;
  bool reorder_channels = true;  // run Algorithm 1 before simulating
  /// FIFO capacity applied to every channel (0 = blocking rendezvous, the
  /// paper's primary protocol; >0 exercises the non-blocking extension).
  std::int64_t fifo_capacity = 0;
  /// Quantize with the MPEG-2 default intra matrix instead of the flat one
  /// (stronger high-frequency suppression: fewer bits, lower PSNR).
  bool intra_matrix = false;
};

struct PipelineResult {
  bool deadlocked = false;
  std::int64_t blocks_encoded = 0;
  std::int64_t total_bits = 0;
  std::int64_t cycles = 0;
  double measured_cycle_time = 0.0;  // cycles per encoded block (steady)
  double psnr_db = 0.0;              // decoder output vs source
  double predicted_cycle_time = 0.0; // TMG cycle time of the timing model
};

/// The timing model of the pipeline (latencies estimated per 8x8 block).
/// Process/channel ids feed the simulator and the analytic tools alike.
sysmodel::SystemModel make_functional_pipeline_model(
    const PipelineConfig& config);

/// Deterministic source pattern (shifts by one pixel per frame so motion
/// estimation has something to find).
std::uint8_t source_pixel(const PipelineConfig& config, std::int32_t frame,
                          std::int32_t x, std::int32_t y);

/// Everything an engine needs to run the pipeline: the timing model after
/// the config's optional reordering, its behaviours (index = ProcessId),
/// the channel whose transfers count encoded blocks, the block count, and
/// readers of the data results the behaviours accumulate (valid while the
/// behaviours live, wherever they were moved).
struct PipelineSetup {
  sysmodel::SystemModel sys;
  std::vector<std::unique_ptr<sim::Behavior>> behaviors;
  sysmodel::ChannelId observe = sysmodel::kInvalidChannel;
  std::int64_t blocks = 0;
  std::function<std::int64_t()> total_bits;
  std::function<double()> psnr_db;
};
PipelineSetup make_functional_pipeline(const PipelineConfig& config);

/// Builds, runs (sim::CompiledSim), decodes, and scores the pipeline.
PipelineResult run_functional_pipeline(const PipelineConfig& config);

}  // namespace ermes::mpeg2
