// Unit tests for the MPEG-2 case study: topology statistics (Table 1),
// characterization (171 Pareto points, M1/M2), and the functional kernels
// (DCT, quantizer, zigzag/RLE, VLC, motion estimation) plus the functional
// pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "analysis/performance.h"
#include "apps/mpeg2/characterization.h"
#include "apps/mpeg2/functional_pipeline.h"
#include "apps/mpeg2/kernels/dct.h"
#include "apps/mpeg2/kernels/motion.h"
#include "apps/mpeg2/kernels/quant.h"
#include "apps/mpeg2/kernels/vlc.h"
#include "apps/mpeg2/kernels/zigzag.h"
#include "apps/mpeg2/topology.h"
#include "graph/traversal.h"
#include "sim/compiled.h"
#include "sim_reference/bridge.h"
#include "sysmodel/validate.h"
#include "util/rng.h"

namespace ermes::mpeg2 {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

// ---- topology (Table 1) -------------------------------------------------------

TEST(Mpeg2TopologyTest, Table1Statistics) {
  const SystemModel sys = make_mpeg2_encoder();
  EXPECT_EQ(sys.num_processes(), 26 + 2);  // 26 + testbench src/snk
  EXPECT_EQ(sys.num_channels(), 60);
}

TEST(Mpeg2TopologyTest, ChannelLatencyRangeMatchesPaper) {
  const SystemModel sys = make_mpeg2_encoder();
  std::int64_t lo = sys.channel_latency(0), hi = sys.channel_latency(0);
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    lo = std::min(lo, sys.channel_latency(c));
    hi = std::max(hi, sys.channel_latency(c));
  }
  EXPECT_EQ(lo, 1);     // "latencies range from 1
  EXPECT_EQ(hi, 5280);  //  to 5,280 clock cycles"
}

TEST(Mpeg2TopologyTest, ValidatesCleanly) {
  const sysmodel::ValidationReport report = validate(make_mpeg2_encoder());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.warnings.empty());
}

TEST(Mpeg2TopologyTest, HasFeedbackLoopsAndPrimedCarriers) {
  const SystemModel sys = make_mpeg2_encoder();
  EXPECT_FALSE(graph::is_acyclic(sys.topology()));
  EXPECT_TRUE(sys.primed(sys.find_process("frame_store")));
  EXPECT_TRUE(sys.primed(sys.find_process("rate_ctrl")));
}

TEST(Mpeg2TopologyTest, HasReconvergentPaths) {
  // mux receives from vlc_coeff, vlc_mv, hdr_gen, rle: reconvergence.
  const SystemModel sys = make_mpeg2_encoder();
  EXPECT_GE(sys.input_order(sys.find_process("mux")).size(), 3u);
}

TEST(Mpeg2TopologyTest, DefaultOrderIsLive) {
  EXPECT_TRUE(analysis::analyze_system(make_mpeg2_encoder()).live);
}

// ---- characterization -----------------------------------------------------------

TEST(Mpeg2CharacterizationTest, Exactly171ParetoPoints) {
  const SystemModel sys = make_characterized_mpeg2_encoder();
  EXPECT_EQ(sys.total_pareto_points(), kParetoPoints);
  EXPECT_EQ(kParetoPoints, 171u);
}

TEST(Mpeg2CharacterizationTest, AllFrontiersParetoOptimal) {
  const SystemModel sys = make_characterized_mpeg2_encoder();
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.has_implementations(p)) {
      EXPECT_TRUE(sys.implementations(p).is_pareto_optimal())
          << sys.process_name(p);
    }
  }
}

TEST(Mpeg2CharacterizationTest, M1FasterAndLargerThanM2) {
  SystemModel sys = make_characterized_mpeg2_encoder();  // M2 selected
  const double m2_area = sys.total_area();
  const double m2_ct = analysis::analyze_system(sys).cycle_time;
  select_m1(sys);
  const double m1_area = sys.total_area();
  const double m1_ct = analysis::analyze_system(sys).cycle_time;
  EXPECT_LT(m1_ct, m2_ct);
  EXPECT_GT(m1_area, m2_area);
  // Paper ratios: CT 3597/1906 ~ 1.89x, area 2.267/1.562 ~ 1.45x. Require
  // the same orders of magnitude (shape, not absolute numbers).
  EXPECT_GT(m2_ct / m1_ct, 1.3);
  EXPECT_GT(m1_area / m2_area, 1.2);
}

TEST(Mpeg2CharacterizationTest, M2LeavesAreaRecoveryHeadroom) {
  SystemModel sys = make_characterized_mpeg2_encoder();
  // M2 is not per-process minimal: some process must have a smaller point.
  int with_headroom = 0;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) continue;
    const auto& set = sys.implementations(p);
    if (sys.selected_implementation(p) < set.size() - 1) ++with_headroom;
  }
  EXPECT_GT(with_headroom, 20);
}

TEST(Mpeg2CharacterizationTest, BothSelectionsLive) {
  SystemModel sys = make_characterized_mpeg2_encoder();
  EXPECT_TRUE(analysis::analyze_system(sys).live);
  select_m1(sys);
  EXPECT_TRUE(analysis::analyze_system(sys).live);
}

// ---- DCT -------------------------------------------------------------------------

TEST(DctTest, DcOnlyBlock) {
  Block8x8 block{};
  block.fill(64);
  const Block8x8 coef = forward_dct(block);
  EXPECT_EQ(coef[0], 512);  // 64 * 8 (orthonormal scaling)
  for (std::size_t i = 1; i < 64; ++i) EXPECT_EQ(coef[i], 0);
}

TEST(DctTest, RoundTripWithinOne) {
  util::Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    Block8x8 block{};
    for (auto& v : block) {
      v = static_cast<std::int32_t>(rng.uniform_int(-255, 255));
    }
    const Block8x8 rec = inverse_dct(forward_dct(block));
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_NEAR(rec[i], block[i], 1) << "trial " << trial << " idx " << i;
    }
  }
}

TEST(DctTest, LinearityInDc) {
  Block8x8 a{};
  a.fill(10);
  Block8x8 b{};
  b.fill(20);
  EXPECT_EQ(forward_dct(b)[0], 2 * forward_dct(a)[0]);
}

TEST(DctTest, EnergyCompactionOnSmoothRamp) {
  Block8x8 ramp{};
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      ramp[static_cast<std::size_t>(y * 8 + x)] = x * 8;
    }
  }
  const Block8x8 coef = forward_dct(ramp);
  std::int64_t low = 0, high = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::int64_t e =
        static_cast<std::int64_t>(coef[i]) * coef[i];
    if (kZigzagOrder[10] >= 0 && i < 8) {
      low += e;
    } else {
      high += e;
    }
  }
  EXPECT_GT(low, high);  // energy concentrates in the first coefficients
}

// ---- quantization ------------------------------------------------------------------

TEST(QuantTest, QuantizeDequantizeApproximate) {
  util::Rng rng(43);
  Block8x8 coef{};
  for (auto& v : coef) {
    v = static_cast<std::int32_t>(rng.uniform_int(-500, 500));
  }
  const int qscale = 2;
  const Block8x8 rec =
      dequantize(quantize(coef, kFlatMatrix, qscale), kFlatMatrix, qscale);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(rec[i], coef[i], 16 * qscale / 2 + 1);
  }
}

TEST(QuantTest, CoarserScaleLosesMore) {
  Block8x8 coef{};
  coef[3] = 100;
  const Block8x8 fine = quantize(coef, kFlatMatrix, 1);
  const Block8x8 coarse = quantize(coef, kFlatMatrix, 16);
  EXPECT_GT(std::abs(fine[3]), std::abs(coarse[3]));
}

TEST(QuantTest, IntraMatrixWeightsHighFrequenciesHarder) {
  EXPECT_LT(kDefaultIntraMatrix[0], kDefaultIntraMatrix[63]);
}

// ---- zigzag / RLE -------------------------------------------------------------------

TEST(ZigzagTest, OrderIsPermutation) {
  std::array<bool, 64> seen{};
  for (std::int32_t idx : kZigzagOrder) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
}

TEST(ZigzagTest, ScanUnscanRoundTrip) {
  Block8x8 block{};
  for (std::size_t i = 0; i < 64; ++i) {
    block[i] = static_cast<std::int32_t>(i * 3 - 50);
  }
  EXPECT_EQ(zigzag_unscan(zigzag_scan(block)), block);
}

TEST(ZigzagTest, FirstScannedIsDc) {
  Block8x8 block{};
  block[0] = 99;
  EXPECT_EQ(zigzag_scan(block)[0], 99);
}

TEST(RunLevelTest, EncodeDecodeRoundTrip) {
  util::Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    std::array<std::int32_t, 64> scanned{};
    for (auto& v : scanned) {
      v = rng.flip(0.2) ? static_cast<std::int32_t>(rng.uniform_int(-99, 99))
                        : 0;
    }
    EXPECT_EQ(run_level_decode(run_level_encode(scanned)), scanned);
  }
}

TEST(RunLevelTest, AllZerosEncodesEmpty) {
  std::array<std::int32_t, 64> zeros{};
  EXPECT_TRUE(run_level_encode(zeros).empty());
}

TEST(RunLevelTest, RunsCounted) {
  std::array<std::int32_t, 64> scanned{};
  scanned[0] = 5;
  scanned[4] = -3;
  const auto symbols = run_level_encode(scanned);
  ASSERT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols[0].run, 0);
  EXPECT_EQ(symbols[0].level, 5);
  EXPECT_EQ(symbols[1].run, 3);
  EXPECT_EQ(symbols[1].level, -3);
}

// ---- VLC ----------------------------------------------------------------------------

TEST(VlcTest, BitIoRoundTrip) {
  BitWriter writer;
  writer.put_bits(0b1011, 4);
  writer.put_bits(0xABCD, 16);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.get_bits(4), 0b1011u);
  EXPECT_EQ(reader.get_bits(16), 0xABCDu);
}

TEST(VlcTest, ExpGolombRoundTrip) {
  BitWriter writer;
  for (std::uint64_t v : {0u, 1u, 2u, 7u, 255u, 100000u}) writer.put_ue(v);
  for (std::int64_t v : {0, 1, -1, 42, -4242}) writer.put_se(v);
  BitReader reader(writer.bytes());
  for (std::uint64_t v : {0u, 1u, 2u, 7u, 255u, 100000u}) {
    EXPECT_EQ(reader.get_ue(), v);
  }
  for (std::int64_t v : {0, 1, -1, 42, -4242}) {
    EXPECT_EQ(reader.get_se(), v);
  }
}

TEST(VlcTest, SmallValuesCodeShort) {
  BitWriter a, b;
  a.put_ue(0);
  b.put_ue(1000);
  EXPECT_LT(a.bit_count(), b.bit_count());
}

TEST(VlcTest, BlockCodecRoundTrip) {
  util::Rng rng(53);
  for (int trial = 0; trial < 10; ++trial) {
    std::array<std::int32_t, 64> scanned{};
    for (auto& v : scanned) {
      v = rng.flip(0.15) ? static_cast<std::int32_t>(rng.uniform_int(-50, 50))
                         : 0;
    }
    const auto symbols = run_level_encode(scanned);
    BitWriter writer;
    encode_block(writer, symbols);
    BitReader reader(writer.bytes());
    const auto decoded = decode_block(reader);
    ASSERT_EQ(decoded.size(), symbols.size());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      EXPECT_EQ(decoded[i].run, symbols[i].run);
      EXPECT_EQ(decoded[i].level, symbols[i].level);
    }
  }
}

TEST(VlcTest, MotionCodecRoundTrip) {
  BitWriter writer;
  encode_motion(writer, -3, 7);
  encode_motion(writer, 0, 0);
  BitReader reader(writer.bytes());
  std::int32_t dx = 99, dy = 99;
  decode_motion(reader, dx, dy);
  EXPECT_EQ(dx, -3);
  EXPECT_EQ(dy, 7);
  decode_motion(reader, dx, dy);
  EXPECT_EQ(dx, 0);
  EXPECT_EQ(dy, 0);
}

// ---- motion ---------------------------------------------------------------------------

TEST(MotionTest, SadZeroForIdenticalBlocks) {
  const Frame f = make_frame(32, 32, 100);
  EXPECT_EQ(block_sad(f, f, 8, 8, 0, 0, 8), 0);
}

TEST(MotionTest, FullSearchFindsKnownShift) {
  Frame ref = make_frame(64, 64, 0);
  util::Rng rng(59);
  for (auto& px : ref.luma) {
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  // Current frame = reference shifted by (+2, +1).
  Frame cur = make_frame(64, 64, 0);
  for (std::int32_t y = 0; y < 64; ++y) {
    for (std::int32_t x = 0; x < 64; ++x) {
      cur.at_mut(x, y) = ref.at(x + 2, y + 1);
    }
  }
  const MotionVector mv = full_search(cur, ref, 24, 24, 8, 4);
  EXPECT_EQ(mv.dx, 2);
  EXPECT_EQ(mv.dy, 1);
  EXPECT_EQ(mv.sad, 0);
}

TEST(MotionTest, PredictionMatchesReferenceContent) {
  Frame ref = make_frame(32, 32, 0);
  for (std::int32_t y = 0; y < 32; ++y) {
    for (std::int32_t x = 0; x < 32; ++x) {
      ref.at_mut(x, y) = static_cast<std::uint8_t>(x + y);
    }
  }
  const MotionVector mv{1, 2, 0};
  const auto pred = predict_block(ref, 4, 4, mv, 4);
  EXPECT_EQ(pred[0], ref.at(5, 6));
}

TEST(MotionTest, EdgeClampedAccess) {
  const Frame f = make_frame(8, 8, 77);
  EXPECT_EQ(f.at(-5, -5), 77);
  EXPECT_EQ(f.at(100, 3), 77);
}

// ---- functional pipeline ----------------------------------------------------------------

TEST(PipelineTest, ModelIsLiveAndValidates) {
  const PipelineConfig config;
  const SystemModel sys = make_functional_pipeline_model(config);
  EXPECT_TRUE(validate(sys).ok());
  EXPECT_TRUE(analysis::analyze_system(sys).live);
}

TEST(PipelineTest, EncodesAndDecodesWithGoodPsnr) {
  PipelineConfig config;
  config.width = 32;
  config.height = 16;
  config.frames = 3;
  const PipelineResult result = run_functional_pipeline(config);
  ASSERT_FALSE(result.deadlocked);
  EXPECT_EQ(result.blocks_encoded, (32 / 8) * (16 / 8) * 3);
  EXPECT_GT(result.total_bits, 0);
  EXPECT_GT(result.psnr_db, 30.0);  // near-lossless at qscale 4
}

TEST(PipelineTest, MeasuredThroughputMatchesModelPrediction) {
  PipelineConfig config;
  config.width = 32;
  config.height = 16;
  config.frames = 6;
  const PipelineResult result = run_functional_pipeline(config);
  ASSERT_FALSE(result.deadlocked);
  EXPECT_NEAR(result.measured_cycle_time, result.predicted_cycle_time, 1e-9);
}

TEST(PipelineTest, ReorderingDoesNotBreakFunctionality) {
  PipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.frames = 2;
  config.reorder_channels = false;
  const PipelineResult plain = run_functional_pipeline(config);
  config.reorder_channels = true;
  const PipelineResult ordered = run_functional_pipeline(config);
  ASSERT_FALSE(plain.deadlocked);
  ASSERT_FALSE(ordered.deadlocked);
  // Identical data results; throughput at least as good.
  EXPECT_EQ(plain.total_bits, ordered.total_bits);
  EXPECT_NEAR(plain.psnr_db, ordered.psnr_db, 1e-9);
  EXPECT_LE(ordered.measured_cycle_time, plain.measured_cycle_time + 1e-9);
}

TEST(PipelineTest, FifoChannelsPreserveDataAndImproveThroughput) {
  PipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.frames = 3;
  const PipelineResult rendezvous = run_functional_pipeline(config);
  config.fifo_capacity = 2;
  const PipelineResult buffered = run_functional_pipeline(config);
  ASSERT_FALSE(rendezvous.deadlocked);
  ASSERT_FALSE(buffered.deadlocked);
  // Same stream, same quality; throughput at least as good with buffering.
  EXPECT_EQ(buffered.total_bits, rendezvous.total_bits);
  EXPECT_NEAR(buffered.psnr_db, rendezvous.psnr_db, 1e-9);
  EXPECT_LE(buffered.measured_cycle_time,
            rendezvous.measured_cycle_time + 1e-9);
  // And the TMG still predicts the buffered pipeline exactly.
  EXPECT_NEAR(buffered.measured_cycle_time, buffered.predicted_cycle_time,
              1e-9);
}

TEST(PipelineTest, IntraMatrixTradesBitsForQuality) {
  PipelineConfig config;
  config.width = 32;
  config.height = 16;
  config.frames = 2;
  config.qscale = 2;
  const PipelineResult flat = run_functional_pipeline(config);
  config.intra_matrix = true;
  const PipelineResult intra = run_functional_pipeline(config);
  ASSERT_FALSE(flat.deadlocked);
  ASSERT_FALSE(intra.deadlocked);
  // The intra matrix quantizes high frequencies harder: fewer bits at some
  // quality cost (both streams still decode).
  EXPECT_LT(intra.total_bits, flat.total_bits);
  EXPECT_LE(intra.psnr_db, flat.psnr_db + 1e-9);
  EXPECT_GT(intra.psnr_db, 25.0);
}

// The pipeline's behaviours ride on the compiled engine through one
// observer; on the reference kernel (tests/sim_reference) they are called
// straight from its event loop. Both runs must agree field for field.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(PipelineTest, MatchesTheReferenceKernelFieldForField) {
  std::vector<PipelineConfig> configs(4);
  for (PipelineConfig& config : configs) {
    config.width = 32;
    config.height = 16;
    config.frames = 3;
  }
  configs[0].reorder_channels = false;  // plain
  configs[2].fifo_capacity = 2;         // FIFO
  configs[3].intra_matrix = true;       // intra matrix
  configs[3].qscale = 2;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const PipelineResult compiled = run_functional_pipeline(configs[i]);

    PipelineSetup setup = make_functional_pipeline(configs[i]);
    sim::Kernel kernel =
        sim::build_kernel(setup.sys, std::move(setup.behaviors));
    const sim::RunResult reference = kernel.run(
        setup.observe, setup.blocks,
        sim::default_cycle_limit(setup.sys, setup.blocks));

    ASSERT_FALSE(compiled.deadlocked) << "config " << i;
    EXPECT_EQ(compiled.deadlocked, reference.deadlock.deadlocked);
    EXPECT_EQ(compiled.blocks_encoded, reference.observed_count)
        << "config " << i;
    EXPECT_EQ(compiled.total_bits, setup.total_bits()) << "config " << i;
    EXPECT_EQ(compiled.cycles, reference.cycles) << "config " << i;
    EXPECT_TRUE(same_bits(compiled.psnr_db, setup.psnr_db()))
        << "config " << i << ": " << compiled.psnr_db << " vs "
        << setup.psnr_db();
    EXPECT_TRUE(same_bits(compiled.measured_cycle_time,
                          reference.measured_cycle_time))
        << "config " << i;
  }
}

}  // namespace
}  // namespace ermes::mpeg2
