#include "apps/mpeg2/functional_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "analysis/performance.h"
#include "apps/mpeg2/kernels/dct.h"
#include "apps/mpeg2/kernels/motion.h"
#include "apps/mpeg2/kernels/quant.h"
#include "apps/mpeg2/kernels/vlc.h"
#include "apps/mpeg2/kernels/zigzag.h"
#include "ordering/channel_ordering.h"
#include "sim/behavior.h"
#include "sim/compiled.h"
#include "sysmodel/builder.h"

namespace ermes::mpeg2 {

using sim::Packet;
using sim::SimChannelId;
using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

constexpr std::int32_t kBlock = 8;

// ---- packet helpers --------------------------------------------------------

Packet pack_block(const Block8x8& block) {
  Packet packet;
  packet.data.assign(block.begin(), block.end());
  return packet;
}

Block8x8 unpack_block(const Packet& packet) {
  Block8x8 block{};
  for (std::size_t i = 0; i < 64 && i < packet.data.size(); ++i) {
    block[i] = static_cast<std::int32_t>(packet.data[i]);
  }
  return block;
}

Packet pack_vec(const std::vector<std::int32_t>& vec) {
  Packet packet;
  packet.data.assign(vec.begin(), vec.end());
  return packet;
}

// ---- geometry --------------------------------------------------------------

struct Geometry {
  std::int32_t width, height, frames;
  std::int32_t blocks_x() const { return width / kBlock; }
  std::int32_t blocks_y() const { return height / kBlock; }
  std::int32_t blocks_per_frame() const { return blocks_x() * blocks_y(); }
  std::int64_t total_blocks() const {
    return static_cast<std::int64_t>(blocks_per_frame()) * frames;
  }
  // Raster position of block index k within a frame.
  std::int32_t bx(std::int64_t k) const {
    return static_cast<std::int32_t>(k % blocks_x()) * kBlock;
  }
  std::int32_t by(std::int64_t k) const {
    return static_cast<std::int32_t>(k / blocks_x()) * kBlock;
  }
};

Block8x8 source_block(const PipelineConfig& config, std::int32_t frame,
                      std::int32_t bx, std::int32_t by) {
  Block8x8 block{};
  for (std::int32_t y = 0; y < kBlock; ++y) {
    for (std::int32_t x = 0; x < kBlock; ++x) {
      block[static_cast<std::size_t>(y * kBlock + x)] =
          source_pixel(config, frame, bx + x, by + y);
    }
  }
  return block;
}

// ---- behaviors -------------------------------------------------------------

// Channel ids are fixed by make_functional_pipeline_model (see the spec
// below); behaviors reference them by symbolic index.
struct Channels {
  ChannelId cur_sub, cur_mc, pred_sub, pred_recon, mv_vlc, res_dct, coef_q,
      lev_vlc, lev_iq, deq_idct, rres_recon, recon_fs, ref_mc, bits_snk;
};

class SrcBehavior final : public sim::Behavior {
 public:
  SrcBehavior(const PipelineConfig& config, const Geometry& geo,
              const Channels& ch)
      : config_(config), geo_(geo), ch_(ch) {}

  Packet on_put(SimChannelId c) override {
    const auto frame = static_cast<std::int32_t>(
        index_ / geo_.blocks_per_frame());
    const std::int64_t k = index_ % geo_.blocks_per_frame();
    const Block8x8 block =
        source_block(config_, frame, geo_.bx(k), geo_.by(k));
    (void)c;  // both outputs carry the current block
    (void)ch_;
    return pack_block(block);
  }
  void on_loop_end() override { ++index_; }

 private:
  PipelineConfig config_;
  Geometry geo_;
  Channels ch_;
  std::int64_t index_ = 0;
};

class McBehavior final : public sim::Behavior {
 public:
  McBehavior(const PipelineConfig& config, const Geometry& geo,
             const Channels& ch)
      : config_(config), geo_(geo), ch_(ch) {
    cur_frame_ = make_frame(geo.width, geo.height);
    ref_frame_ = make_frame(geo.width, geo.height);
  }

  void on_get(SimChannelId c, const Packet& packet) override {
    if (c == ch_.cur_mc) {
      cur_block_ = unpack_block(packet);
      // Write the block into a scratch frame so full_search can read it.
      const std::int64_t k = index_ % geo_.blocks_per_frame();
      const std::int32_t bx = geo_.bx(k), by = geo_.by(k);
      for (std::int32_t y = 0; y < kBlock; ++y) {
        for (std::int32_t x = 0; x < kBlock; ++x) {
          cur_frame_.at_mut(bx + x, by + y) = static_cast<std::uint8_t>(
              std::clamp(cur_block_[static_cast<std::size_t>(y * kBlock + x)],
                         0, 255));
        }
      }
    } else if (c == ch_.ref_mc) {
      // Full reference frame from the frame store.
      for (std::size_t i = 0;
           i < packet.data.size() && i < ref_frame_.luma.size(); ++i) {
        ref_frame_.luma[i] = static_cast<std::uint8_t>(packet.data[i]);
      }
    }
  }

  Packet on_put(SimChannelId c) override {
    ensure_estimated();
    if (c == ch_.mv_vlc) {
      return Packet{{mv_.dx, mv_.dy}};
    }
    return pack_vec(pred_);  // pred_sub and pred_recon carry the prediction
  }

  void on_loop_end() override {
    estimated_ = false;
    ++index_;
  }

 private:
  void ensure_estimated() {
    if (estimated_) return;
    const std::int64_t k = index_ % geo_.blocks_per_frame();
    const std::int32_t bx = geo_.bx(k), by = geo_.by(k);
    mv_ = full_search(cur_frame_, ref_frame_, bx, by, kBlock,
                      config_.search_range);
    pred_ = predict_block(ref_frame_, bx, by, mv_, kBlock);
    estimated_ = true;
  }

  PipelineConfig config_;
  Geometry geo_;
  Channels ch_;
  Frame cur_frame_, ref_frame_;
  Block8x8 cur_block_{};
  MotionVector mv_;
  std::vector<std::int32_t> pred_;
  bool estimated_ = false;
  std::int64_t index_ = 0;
};

class SubBehavior final : public sim::Behavior {
 public:
  explicit SubBehavior(const Channels& ch) : ch_(ch) {}
  void on_get(SimChannelId c, const Packet& packet) override {
    if (c == ch_.cur_sub) {
      cur_ = unpack_block(packet);
    } else {
      pred_ = unpack_block(packet);
    }
  }
  Packet on_put(SimChannelId) override {
    Block8x8 res{};
    for (std::size_t i = 0; i < 64; ++i) res[i] = cur_[i] - pred_[i];
    return pack_block(res);
  }

 private:
  Channels ch_;
  Block8x8 cur_{}, pred_{};
};

class DctBehavior final : public sim::Behavior {
 public:
  void on_get(SimChannelId, const Packet& packet) override {
    in_ = unpack_block(packet);
  }
  Packet on_put(SimChannelId) override { return pack_block(forward_dct(in_)); }

 private:
  Block8x8 in_{};
};

class QuantBehavior final : public sim::Behavior {
 public:
  QuantBehavior(int qscale, const Block8x8& matrix)
      : qscale_(qscale), matrix_(matrix) {}
  void on_get(SimChannelId, const Packet& packet) override {
    levels_ = quantize(unpack_block(packet), matrix_, qscale_);
  }
  Packet on_put(SimChannelId) override { return pack_block(levels_); }

 private:
  int qscale_;
  Block8x8 matrix_;
  Block8x8 levels_{};
};

class VlcBehavior final : public sim::Behavior {
 public:
  explicit VlcBehavior(const Channels& ch) : ch_(ch) {}
  void on_get(SimChannelId c, const Packet& packet) override {
    if (c == ch_.lev_vlc) {
      levels_ = unpack_block(packet);
    } else {
      mv_dx_ = static_cast<std::int32_t>(packet.data.size() > 0 ? packet.data[0] : 0);
      mv_dy_ = static_cast<std::int32_t>(packet.data.size() > 1 ? packet.data[1] : 0);
    }
  }
  Packet on_put(SimChannelId) override {
    BitWriter writer;
    encode_motion(writer, mv_dx_, mv_dy_);
    encode_block(writer, run_level_encode(zigzag_scan(levels_)));
    total_bits_ += writer.bit_count();
    Packet packet;
    packet.data.push_back(writer.bit_count());
    for (std::uint8_t byte : writer.bytes()) packet.data.push_back(byte);
    return packet;
  }
  std::int64_t total_bits() const { return total_bits_; }

 private:
  Channels ch_;
  Block8x8 levels_{};
  std::int32_t mv_dx_ = 0, mv_dy_ = 0;
  std::int64_t total_bits_ = 0;
};

class IquantBehavior final : public sim::Behavior {
 public:
  IquantBehavior(int qscale, const Block8x8& matrix)
      : qscale_(qscale), matrix_(matrix) {}
  void on_get(SimChannelId, const Packet& packet) override {
    out_ = dequantize(unpack_block(packet), matrix_, qscale_);
  }
  Packet on_put(SimChannelId) override { return pack_block(out_); }

 private:
  int qscale_;
  Block8x8 matrix_;
  Block8x8 out_{};
};

class IdctBehavior final : public sim::Behavior {
 public:
  void on_get(SimChannelId, const Packet& packet) override {
    out_ = inverse_dct(unpack_block(packet));
  }
  Packet on_put(SimChannelId) override { return pack_block(out_); }

 private:
  Block8x8 out_{};
};

class ReconBehavior final : public sim::Behavior {
 public:
  explicit ReconBehavior(const Channels& ch) : ch_(ch) {}
  void on_get(SimChannelId c, const Packet& packet) override {
    if (c == ch_.pred_recon) {
      pred_ = unpack_block(packet);
    } else {
      res_ = unpack_block(packet);
    }
  }
  Packet on_put(SimChannelId) override {
    Block8x8 recon{};
    for (std::size_t i = 0; i < 64; ++i) {
      recon[i] = std::clamp(pred_[i] + res_[i], 0, 255);
    }
    return pack_block(recon);
  }

 private:
  Channels ch_;
  Block8x8 pred_{}, res_{};
};

class FrameStoreBehavior final : public sim::Behavior {
 public:
  FrameStoreBehavior(const Geometry& geo) : geo_(geo) {
    ref_ = make_frame(geo.width, geo.height);
    pending_ = make_frame(geo.width, geo.height);
  }
  void on_get(SimChannelId, const Packet& packet) override {
    const Block8x8 block = unpack_block(packet);
    const std::int64_t k = index_ % geo_.blocks_per_frame();
    const std::int32_t bx = geo_.bx(k), by = geo_.by(k);
    for (std::int32_t y = 0; y < kBlock; ++y) {
      for (std::int32_t x = 0; x < kBlock; ++x) {
        pending_.at_mut(bx + x, by + y) = static_cast<std::uint8_t>(
            std::clamp(block[static_cast<std::size_t>(y * kBlock + x)], 0,
                       255));
      }
    }
    ++index_;
    if (index_ % geo_.blocks_per_frame() == 0) {
      ref_ = pending_;  // previous frame becomes the reference
    }
  }
  Packet on_put(SimChannelId) override {
    Packet packet;
    packet.data.assign(ref_.luma.begin(), ref_.luma.end());
    return packet;
  }

 private:
  Geometry geo_;
  Frame ref_, pending_;
  std::int64_t index_ = 0;
};

// Full decoder at the sink: rebuilds every frame and accumulates the squared
// error against the regenerated source.
class SnkBehavior final : public sim::Behavior {
 public:
  SnkBehavior(const PipelineConfig& config, const Geometry& geo)
      : config_(config), geo_(geo) {
    ref_ = make_frame(geo.width, geo.height);
    pending_ = make_frame(geo.width, geo.height);
  }

  void on_get(SimChannelId, const Packet& packet) override {
    // Unpack the bitstream packet.
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 1; i < packet.data.size(); ++i) {
      bytes.push_back(static_cast<std::uint8_t>(packet.data[i]));
    }
    BitReader reader(bytes);
    std::int32_t dx = 0, dy = 0;
    decode_motion(reader, dx, dy);
    const Block8x8 levels =
        zigzag_unscan(run_level_decode(decode_block(reader)));
    const Block8x8 res = inverse_dct(dequantize(
        levels, config_.intra_matrix ? kDefaultIntraMatrix : kFlatMatrix,
        config_.qscale));

    const std::int64_t k = index_ % geo_.blocks_per_frame();
    const auto frame =
        static_cast<std::int32_t>(index_ / geo_.blocks_per_frame());
    const std::int32_t bx = geo_.bx(k), by = geo_.by(k);
    const MotionVector mv{dx, dy, 0};
    const std::vector<std::int32_t> pred =
        predict_block(ref_, bx, by, mv, kBlock);
    for (std::int32_t y = 0; y < kBlock; ++y) {
      for (std::int32_t x = 0; x < kBlock; ++x) {
        const int value = std::clamp(
            pred[static_cast<std::size_t>(y * kBlock + x)] +
                res[static_cast<std::size_t>(y * kBlock + x)],
            0, 255);
        pending_.at_mut(bx + x, by + y) = static_cast<std::uint8_t>(value);
        const int orig = source_pixel(config_, frame, bx + x, by + y);
        const double err = static_cast<double>(value - orig);
        sse_ += err * err;
        ++samples_;
      }
    }
    ++index_;
    if (index_ % geo_.blocks_per_frame() == 0) {
      ref_ = pending_;
    }
  }

  double psnr_db() const {
    if (samples_ == 0 || sse_ == 0.0) return 99.0;
    const double mse = sse_ / static_cast<double>(samples_);
    return 10.0 * std::log10(255.0 * 255.0 / mse);
  }

 private:
  PipelineConfig config_;
  Geometry geo_;
  Frame ref_, pending_;
  std::int64_t index_ = 0;
  double sse_ = 0.0;
  std::int64_t samples_ = 0;
};

}  // namespace

std::uint8_t source_pixel(const PipelineConfig& config, std::int32_t frame,
                          std::int32_t x, std::int32_t y) {
  // Smooth gradient translating by (1,1) per frame + a moving bright square.
  const std::int32_t sx = x - frame, sy = y - frame;
  int value = ((sx * 5 + sy * 3) / 2) % 200;
  if (value < 0) value += 200;
  const std::int32_t qx = (x - 4 * frame) % config.width;
  if (qx >= 8 && qx < 24 && y >= 8 && y < 24) value = 240;
  return static_cast<std::uint8_t>(value);
}

SystemModel make_functional_pipeline_model(const PipelineConfig& config) {
  sysmodel::SystemSpec spec;
  // Per-8x8-block latency estimates (cycles): motion estimation dominates.
  spec.processes = {
      {"src", 8, 0.0},     {"mc", 700, 0.0},    {"sub", 16, 0.0},
      {"dct", 96, 0.0},    {"quant", 32, 0.0},  {"vlc", 64, 0.0},
      {"iquant", 32, 0.0}, {"idct", 96, 0.0},   {"recon", 16, 0.0},
      {"frame_store", 24, 0.0},                 {"snk", 8, 0.0},
  };
  spec.channels = {
      {"cur_sub", "src", "sub", 4},
      {"cur_mc", "src", "mc", 4},
      {"pred_sub", "mc", "sub", 4},
      {"pred_recon", "mc", "recon", 4},
      {"mv_vlc", "mc", "vlc", 1},
      {"res_dct", "sub", "dct", 4},
      {"coef_q", "dct", "quant", 8},
      {"lev_vlc", "quant", "vlc", 8},
      {"lev_iq", "quant", "iquant", 8},
      {"deq_idct", "iquant", "idct", 8},
      {"rres_recon", "idct", "recon", 4},
      {"recon_fs", "recon", "frame_store", 4},
      {"ref_mc", "frame_store", "mc", 192},  // full reference frame
      {"bits_snk", "vlc", "snk", 8},
  };
  SystemModel sys = sysmodel::build_system(spec);
  sys.set_primed(sys.find_process("frame_store"), true);
  if (config.fifo_capacity > 0) {
    for (ChannelId c = 0; c < sys.num_channels(); ++c) {
      sys.set_channel_capacity(c, config.fifo_capacity);
    }
  }
  return sys;
}

PipelineSetup make_functional_pipeline(const PipelineConfig& config) {
  assert(config.width % kBlock == 0 && config.height % kBlock == 0);
  const Geometry geo{config.width, config.height, config.frames};

  PipelineSetup setup;
  SystemModel& sys = setup.sys;
  sys = make_functional_pipeline_model(config);
  if (config.reorder_channels) {
    ordering::apply_ordering(sys, ordering::channel_ordering(sys));
  }

  Channels ch;
  ch.cur_sub = sys.find_channel("cur_sub");
  ch.cur_mc = sys.find_channel("cur_mc");
  ch.pred_sub = sys.find_channel("pred_sub");
  ch.pred_recon = sys.find_channel("pred_recon");
  ch.mv_vlc = sys.find_channel("mv_vlc");
  ch.res_dct = sys.find_channel("res_dct");
  ch.coef_q = sys.find_channel("coef_q");
  ch.lev_vlc = sys.find_channel("lev_vlc");
  ch.lev_iq = sys.find_channel("lev_iq");
  ch.deq_idct = sys.find_channel("deq_idct");
  ch.rres_recon = sys.find_channel("rres_recon");
  ch.recon_fs = sys.find_channel("recon_fs");
  ch.ref_mc = sys.find_channel("ref_mc");
  ch.bits_snk = sys.find_channel("bits_snk");

  std::vector<std::unique_ptr<sim::Behavior>>& behaviors = setup.behaviors;
  behaviors.resize(static_cast<std::size_t>(sys.num_processes()));
  auto set = [&](const char* name, std::unique_ptr<sim::Behavior> behavior) {
    behaviors[static_cast<std::size_t>(sys.find_process(name))] =
        std::move(behavior);
  };
  set("src", std::make_unique<SrcBehavior>(config, geo, ch));
  set("mc", std::make_unique<McBehavior>(config, geo, ch));
  set("sub", std::make_unique<SubBehavior>(ch));
  set("dct", std::make_unique<DctBehavior>());
  const Block8x8& matrix =
      config.intra_matrix ? kDefaultIntraMatrix : kFlatMatrix;
  set("quant", std::make_unique<QuantBehavior>(config.qscale, matrix));
  auto vlc_behavior = std::make_unique<VlcBehavior>(ch);
  VlcBehavior* vlc_ptr = vlc_behavior.get();
  set("vlc", std::move(vlc_behavior));
  set("iquant", std::make_unique<IquantBehavior>(config.qscale, matrix));
  set("idct", std::make_unique<IdctBehavior>());
  set("recon", std::make_unique<ReconBehavior>(ch));
  set("frame_store", std::make_unique<FrameStoreBehavior>(geo));
  auto snk_behavior = std::make_unique<SnkBehavior>(config, geo);
  SnkBehavior* snk_ptr = snk_behavior.get();
  set("snk", std::move(snk_behavior));

  setup.observe = ch.bits_snk;
  setup.blocks = geo.total_blocks();
  setup.total_bits = [vlc_ptr] { return vlc_ptr->total_bits(); };
  setup.psnr_db = [snk_ptr] { return snk_ptr->psnr_db(); };
  return setup;
}

PipelineResult run_functional_pipeline(const PipelineConfig& config) {
  PipelineSetup setup = make_functional_pipeline(config);
  const sim::CompiledSim compiled(setup.sys);
  sim::CompiledSim::Instance instance(compiled);
  sim::BehaviorObserver observer(setup.sys, std::move(setup.behaviors));
  instance.set_observer(&observer);
  sim::BatchOptions opts;
  opts.observe = setup.observe;
  opts.target_transfers = setup.blocks;
  const sim::ScenarioResult run = instance.run({}, opts);

  PipelineResult result;
  result.deadlocked = run.deadlocked;
  result.blocks_encoded = run.observed_count;
  result.total_bits = setup.total_bits();
  result.cycles = run.cycles;
  result.measured_cycle_time = run.measured_cycle_time;
  result.psnr_db = setup.psnr_db();
  const analysis::PerformanceReport report =
      analysis::analyze_system(setup.sys);
  result.predicted_cycle_time = report.live ? report.cycle_time : 0.0;
  return result;
}

}  // namespace ermes::mpeg2
