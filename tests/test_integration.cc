/**
 * @file
 * Cross-module integration tests: the full Fig. 14/15 methodology
 * (train quantized model -> run on noisy photonic GEMM -> accuracy
 * within ~1% of the digital reference at the design point), and the
 * full Table V evaluation pipeline.
 */

#include <gtest/gtest.h>

#include "arch/performance_model.hh"
#include "baselines/mrr_accelerator.hh"
#include "baselines/mzi_accelerator.hh"
#include "nn/execution_engine.hh"
#include "nn/model_zoo.hh"
#include "nn/transformer.hh"
#include "train/trainer.hh"

namespace {

using namespace lt;
using namespace lt::train;

/** Train the small vision model once and share it across tests. */
class PhotonicAccuracyTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        nn::TransformerConfig cfg;
        cfg.dim = 16;
        cfg.depth = 1;
        cfg.heads = 2;
        cfg.mlp_hidden = 32;
        cfg.num_classes = 4;
        cfg.max_tokens = ShapeDataset::kNumPatches + 1;
        cfg.patch_dim = ShapeDataset::kPatchDim;
        model_ = new nn::TransformerClassifier(cfg);

        TrainerConfig tcfg;
        tcfg.epochs = 8;
        tcfg.lr = 2e-3;
        tcfg.quant = nn::QuantConfig::w8a8();
        tcfg.train_noise_std = 0.03;
        Trainer trainer(*model_, tcfg);
        ShapeDataset train_set(320, 31);
        trainer.trainVision(train_set.samples());

        test_set_ = new ShapeDataset(120, 77);
        nn::IdealBackend ideal;
        nn::RunContext ctx{&ideal, tcfg.quant};
        digital_accuracy_ =
            Trainer::evaluateVision(*model_, test_set_->samples(), ctx);
    }

    static void
    TearDownTestSuite()
    {
        delete model_;
        delete test_set_;
        model_ = nullptr;
        test_set_ = nullptr;
    }

    static double
    photonicAccuracy(const core::NoiseConfig &noise, size_t nlambda)
    {
        core::DptcConfig dcfg;
        dcfg.nh = 12;
        dcfg.nv = 12;
        dcfg.nlambda = nlambda;
        dcfg.input_bits = 8;
        dcfg.noise = noise;
        nn::ExecutionEngine backend(dcfg, core::EvalMode::Noisy);
        nn::RunContext ctx{&backend, nn::QuantConfig::w8a8()};
        return Trainer::evaluateVision(*model_, test_set_->samples(),
                                       ctx);
    }

    static nn::TransformerClassifier *model_;
    static ShapeDataset *test_set_;
    static double digital_accuracy_;
};

nn::TransformerClassifier *PhotonicAccuracyTest::model_ = nullptr;
ShapeDataset *PhotonicAccuracyTest::test_set_ = nullptr;
double PhotonicAccuracyTest::digital_accuracy_ = 0.0;

TEST_F(PhotonicAccuracyTest, DigitalReferenceLearnedTheTask)
{
    EXPECT_GT(digital_accuracy_, 0.70);
}

TEST_F(PhotonicAccuracyTest, DesignPointNoiseCostsLittleAccuracy)
{
    // Paper Fig. 14/15: < 1% accuracy loss at the design point
    // (sigma_mag = 0.03, sigma_phase = 2 deg, dispersion on). We
    // allow a few test-set-sized quanta of slack (120 samples).
    double acc =
        photonicAccuracy(core::NoiseConfig::paperDefault(), 12);
    EXPECT_GT(acc, digital_accuracy_ - 0.05);
}

TEST_F(PhotonicAccuracyTest, RobustAcrossWavelengthCounts)
{
    // Fig. 14: accuracy flat from 6 to 26 wavelengths (< 0.5% drop).
    for (size_t nl : {6, 12, 20, 26}) {
        double acc =
            photonicAccuracy(core::NoiseConfig::paperDefault(), nl);
        EXPECT_GT(acc, digital_accuracy_ - 0.07) << nl;
    }
}

TEST_F(PhotonicAccuracyTest, ExtremeNoiseDegradesAccuracy)
{
    core::NoiseConfig brutal = core::NoiseConfig::paperDefault();
    brutal.magnitude_noise_std = 0.5;
    brutal.phase_noise_std_deg = 45.0;
    brutal.systematic_output_std = 0.5;
    double acc = photonicAccuracy(brutal, 12);
    // Sanity: the noise knobs really reach the network.
    EXPECT_LT(acc, digital_accuracy_);
}

// ---- full Table V pipeline ------------------------------------------------

TEST(TableVPipeline, AllCellsFiniteAndOrdered)
{
    arch::LtPerformanceModel lt_model(arch::ArchConfig::ltBase());
    baselines::MrrAccelerator mrr;
    baselines::MziAccelerator mzi;

    for (const auto &model_cfg : {nn::deitTiny(), nn::deitBase()}) {
        nn::Workload wl = nn::extractWorkload(model_cfg);
        auto lt_r = lt_model.evaluate(wl);
        auto mrr_r = mrr.evaluate(wl);
        auto mzi_r = mzi.evaluate(wl, mrr);

        EXPECT_GT(lt_r.energy.total(), 0.0);
        EXPECT_GT(lt_r.latency.total(), 0.0);
        // LT-B wins on energy, latency, and EDP against both.
        EXPECT_LT(lt_r.energy.total(), mrr_r.energy.total());
        EXPECT_LT(lt_r.energy.total(), mzi_r.energy.total());
        EXPECT_LT(lt_r.latency.total(), mrr_r.latency.total());
        EXPECT_LT(lt_r.latency.total(), mzi_r.latency.total());
        EXPECT_LT(lt_r.edp(), mrr_r.edp());
        EXPECT_LT(lt_r.edp(), mzi_r.edp());
    }
}

TEST(TableVPipeline, ArchOptColumnMatchesPaperStructure)
{
    // "Even without architecture-level optimization, LT-B still saves
    // over 2x energy compared to baselines."
    nn::Workload wl = nn::extractWorkload(nn::deitTiny());
    arch::LtPerformanceModel crossbar(arch::ArchConfig::ltCrossbarBase());
    baselines::MrrAccelerator mrr;
    double no_opt = crossbar.evaluate(wl).energy.total();
    double mrr_e = mrr.evaluate(wl).energy.total();
    EXPECT_GT(mrr_e / no_opt, 1.5);
}

TEST(LtLvsLtB, LargeVariantHalvesLatency)
{
    nn::Workload wl = nn::extractWorkload(nn::deitBase());
    arch::LtPerformanceModel base(arch::ArchConfig::ltBase());
    arch::LtPerformanceModel large(arch::ArchConfig::ltLarge());
    double ratio = base.evaluate(wl).latency.total() /
                   large.evaluate(wl).latency.total();
    EXPECT_NEAR(ratio, 2.0, 0.05); // 8 tiles vs 4 tiles
}

} // namespace
