/**
 * @file
 * Tests for the engine's fault-tolerance layer: deterministic
 * injection (core::FaultModel), ABFT checksum detection of every
 * fault kind, recovery bit-identity (retry on healthy replicas,
 * quarantine + reshard, digital fallback and degraded engines), the
 * retry-exhaustion contract, and — the other direction — zero false
 * positives on a max-noise sweep with injection off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dptc.hh"
#include "core/fault_model.hh"
#include "nn/execution_engine.hh"
#include "nn/gemm_backend.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace {

using namespace lt;

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (double &v : m.data())
        v = rng.uniform(-scale, scale);
    return m;
}

core::DptcConfig
noisyDptc()
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.seed = 0xFA171;
    return dcfg;
}

/** Engine config with `cores` replicas and no faults configured. */
nn::EngineConfig
baseConfig(size_t cores = 4)
{
    nn::EngineConfig ecfg;
    ecfg.dptc = noisyDptc();
    ecfg.mode = core::EvalMode::Noisy;
    ecfg.num_cores = cores;
    return ecfg;
}

// ---- the off switch --------------------------------------------------

TEST(Fault, DisabledAndVerifyOnlyEnginesMatchBitExactly)
{
    // Three engines: fault layer off, verification armed with no
    // injection, and a replica list with every replica healthy, which
    // arms nothing (only a faulty() replica or `verify` does). All
    // three must produce bit-identical noisy results; the verify-only
    // engine covers the checked path, which never changes values, it
    // only checks.
    Rng rng(21);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    nn::EngineConfig off = baseConfig();
    nn::EngineConfig verify = baseConfig();
    verify.fault_policy.verify = true;
    nn::EngineConfig armed = baseConfig();
    armed.faults.replicas.resize(4); // all healthy

    nn::ExecutionEngine e_off(off);
    nn::ExecutionEngine e_verify(verify);
    nn::ExecutionEngine e_armed(armed);
    for (uint64_t stream : {0u, 7u, 191u}) {
        Matrix r0 = e_off.gemm(a, b, stream);
        EXPECT_EQ(r0.maxAbsDiff(e_verify.gemm(a, b, stream)), 0.0);
        EXPECT_EQ(r0.maxAbsDiff(e_armed.gemm(a, b, stream)), 0.0);
    }
    EXPECT_EQ(e_verify.status().faults_detected, 0u);
    EXPECT_EQ(e_armed.status().faults_detected, 0u);
    EXPECT_FALSE(e_off.status().degraded);
    EXPECT_EQ(e_off.status().healthy_replicas, 4u);
}

// ---- injection determinism -------------------------------------------

TEST(Fault, InjectionAndRecoveryBitIdenticalAcrossThreadCounts)
{
    // One dead replica, quarantine disabled (threshold above any
    // possible count): the set of (tile, replica) injections — and
    // therefore every detection, every retry, and the recovered
    // result — must be invariant to how many threads shard the tiles.
    Rng rng(22);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    nn::EngineConfig ecfg = baseConfig();
    ecfg.faults.replicas.resize(4);
    ecfg.faults.replicas[1].dead = true;
    ecfg.fault_policy.quarantine_threshold = 1000;

    nn::ExecutionEngine clean(baseConfig());
    Matrix want = clean.gemm(a, b, /*stream=*/5);

    std::vector<Matrix> results;
    std::vector<nn::EngineStatus> statuses;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(ecfg);
        results.push_back(engine.gemm(a, b, /*stream=*/5));
        statuses.push_back(engine.status());
    }
    ThreadPool::setGlobalThreads(0);

    ASSERT_GT(statuses[0].faults_detected, 0u)
        << "the dead replica never got a tile — enlarge the GEMM";
    for (size_t i = 0; i < results.size(); ++i) {
        // Recovery lands on a healthy replica whose clean result is
        // the same pure function of (operands, config, stream) — the
        // final product matches a fault-free engine bit-exactly.
        EXPECT_EQ(results[i].maxAbsDiff(want), 0.0) << "threads run " << i;
        EXPECT_EQ(statuses[i].faults_detected,
                  statuses[0].faults_detected);
        EXPECT_EQ(statuses[i].fault_retries, statuses[0].fault_retries);
        EXPECT_EQ(statuses[i].quarantines, 0u);
    }
}

TEST(Fault, MultiProductFaultCountsInvariantAcrossThreadCounts)
{
    // Quarantine armed on dead replicas, and three dispatches: a
    // 16-product batch with distinct row counts and a 16-row stacked
    // dispatch (replica 1 dead, threshold 2), and one product whose
    // dead replicas are quarantined while its own tiles still run.
    // A checked call reads the healthy set once and every tile's
    // attempts walk that one snapshot, so which replicas each tile
    // tries — and every fault count — must not depend on how many
    // threads run the tiles, nor on when a sibling tile quarantines.
    Rng rng(30);
    const size_t k = 20;
    const size_t n = 30;
    std::vector<Matrix> as, bs, rows;
    for (size_t i = 0; i < 16; ++i) {
        as.push_back(randomMatrix(1 + i, k, rng));
        bs.push_back(randomMatrix(k, n, rng));
        rows.push_back(randomMatrix(1, k, rng));
    }
    const Matrix w = randomMatrix(k, n, rng);
    std::vector<uint64_t> streams;
    std::vector<std::pair<const Matrix *, const Matrix *>> products;
    std::vector<ConstMatrixView> row_views;
    for (size_t i = 0; i < 16; ++i) {
        streams.push_back(500 + i);
        products.emplace_back(&as[i], &bs[i]);
        row_views.push_back(rows[i].view());
    }

    nn::ExecutionEngine clean(baseConfig(8));
    const std::vector<Matrix> want = clean.gemmBatch(products, streams);
    const std::vector<Matrix> want_rows =
        clean.gemmRowStacked(row_views, clean.encodeWeight(w), streams);

    nn::EngineConfig ecfg = baseConfig(8);
    ecfg.faults.replicas.resize(8);
    ecfg.faults.replicas[1].dead = true;
    ecfg.fault_policy.quarantine_threshold = 2;

    for (bool stacked : {false, true}) {
        std::vector<nn::EngineStatus> statuses;
        for (size_t threads : {1u, 2u, 4u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            nn::ExecutionEngine engine(ecfg);
            const std::vector<Matrix> got =
                stacked ? engine.gemmRowStacked(
                              row_views, engine.encodeWeight(w), streams)
                        : engine.gemmBatch(products, streams);
            const std::vector<Matrix> &ref = stacked ? want_rows : want;
            ASSERT_EQ(got.size(), ref.size());
            for (size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i].maxAbsDiff(ref[i]), 0.0)
                    << "stacked " << stacked << " threads " << threads
                    << " product " << i;
            statuses.push_back(engine.status());
        }
        ThreadPool::setGlobalThreads(0);

        EXPECT_GE(statuses[0].faults_detected, 2u) << "stacked " << stacked;
        EXPECT_EQ(statuses[0].quarantines, 1u) << "stacked " << stacked;
        for (size_t t = 1; t < statuses.size(); ++t) {
            EXPECT_EQ(statuses[t].faults_detected,
                      statuses[0].faults_detected)
                << "stacked " << stacked << " thread run " << t;
            EXPECT_EQ(statuses[t].fault_retries, statuses[0].fault_retries)
                << "stacked " << stacked << " thread run " << t;
            EXPECT_EQ(statuses[t].quarantines, statuses[0].quarantines)
                << "stacked " << stacked << " thread run " << t;
        }
    }

    // A quarantine landing mid-product: one [96, 20] x [20, 96]
    // product (64 tiles) on 8 replicas with replicas 1-3 dead and
    // threshold 3. Each dead replica crosses the threshold while the
    // product's other tiles are still trying it.
    const Matrix big_a = randomMatrix(96, k, rng);
    const Matrix big_b = randomMatrix(k, 96, rng);
    const Matrix want_big = clean.gemm(big_a, big_b, /*stream=*/600);
    nn::EngineConfig mid = baseConfig(8);
    mid.faults.replicas.resize(8);
    for (size_t r : {1u, 2u, 3u})
        mid.faults.replicas[r].dead = true;
    mid.fault_policy.quarantine_threshold = 3;
    std::vector<nn::EngineStatus> statuses;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(mid);
        EXPECT_EQ(engine.gemm(big_a, big_b, 600).maxAbsDiff(want_big), 0.0)
            << "threads " << threads;
        statuses.push_back(engine.status());
    }
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(statuses[0].quarantines, 3u);
    for (size_t t = 1; t < statuses.size(); ++t) {
        EXPECT_EQ(statuses[t].faults_detected, statuses[0].faults_detected)
            << "mid-product quarantine, thread run " << t;
        EXPECT_EQ(statuses[t].fault_retries, statuses[0].fault_retries)
            << "mid-product quarantine, thread run " << t;
        EXPECT_EQ(statuses[t].quarantines, statuses[0].quarantines)
            << "mid-product quarantine, thread run " << t;
    }
}

// ---- detection per fault kind ----------------------------------------

TEST(Fault, ChecksumDetectsEveryFaultKindAndRecoversBitExactly)
{
    Rng rng(23);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    nn::ExecutionEngine clean(baseConfig());
    Matrix want = clean.gemm(a, b, /*stream=*/11);

    struct Case
    {
        const char *name;
        core::ReplicaFaultConfig fault;
    };
    std::vector<Case> cases;
    {
        Case dead{"dead-shard", {}};
        dead.fault.dead = true;
        cases.push_back(dead);
        Case stuck{"stuck-channel", {}};
        stuck.fault.stuck_channel = 3; // near-zero vs the accumulator
        cases.push_back(stuck);
        Case railed{"stuck-channel-railed", {}};
        railed.fault.stuck_channel = 0;
        railed.fault.stuck_value = 1e5; // DAC railed high
        cases.push_back(railed);
        Case flip{"bit-flip", {}};
        flip.fault.bitflip_prob = 0.25;
        cases.push_back(flip);
        // Drift detectability floor: a gain g deviates the tile by
        // (g-1)*||D|| ~ (g-1)*0.7*sqrt(basis), and the norm envelope
        // on the smallest tail tiles opens up to ~0.47*sqrt(basis) —
        // drift milder than ~1.7x is beneath the analog noise floor
        // there. Inject well above the floor.
        Case drift{"calibration-drift", {}};
        drift.fault.drift_gain = 2.5;
        cases.push_back(drift);
    }

    for (const Case &c : cases) {
        nn::EngineConfig ecfg = baseConfig();
        ecfg.faults.replicas.resize(4);
        ecfg.faults.replicas[2] = c.fault;
        ecfg.fault_policy.quarantine_threshold = 1000;
        nn::ExecutionEngine engine(ecfg);
        Matrix got = engine.gemm(a, b, /*stream=*/11);
        nn::EngineStatus st = engine.status();
        EXPECT_GT(st.faults_detected, 0u) << c.name;
        EXPECT_GE(st.fault_retries, st.faults_detected) << c.name;
        EXPECT_EQ(got.maxAbsDiff(want), 0.0) << c.name;
    }
}

TEST(Fault, ActivationProbabilityGatesInjection)
{
    // activation_prob = 0 on a dead replica: the fault never fires,
    // nothing is detected, results match the clean engine.
    Rng rng(24);
    Matrix a = randomMatrix(30, 25, rng);
    Matrix b = randomMatrix(25, 20, rng);

    nn::EngineConfig ecfg = baseConfig();
    ecfg.faults.replicas.resize(4);
    ecfg.faults.replicas[0].dead = true;
    ecfg.faults.replicas[0].activation_prob = 0.0;
    nn::ExecutionEngine engine(ecfg);
    nn::ExecutionEngine clean(baseConfig());
    EXPECT_EQ(engine.gemm(a, b, 3).maxAbsDiff(clean.gemm(a, b, 3)),
              0.0);
    EXPECT_EQ(engine.status().faults_detected, 0u);
}

// ---- false positives -------------------------------------------------

TEST(Fault, NoFalsePositivesOnMaxNoiseSweep)
{
    // Verification armed, injection off, noise at DOUBLE the paper's
    // defaults, both samplers, a spread of shapes (including ragged
    // tile tails) and streams: the calibrated tolerances must never
    // flag legitimate noise — a false positive would burn retries and
    // eventually quarantine healthy hardware.
    for (core::NoiseSampler sampler :
         {core::NoiseSampler::BitExact, core::NoiseSampler::Fast}) {
        nn::EngineConfig ecfg = baseConfig();
        ecfg.dptc.noise.magnitude_noise_std = 0.06;
        ecfg.dptc.noise.phase_noise_std_deg = 4.0;
        ecfg.dptc.noise.systematic_output_std = 0.10;
        ecfg.dptc.noise.sampler = sampler;
        ecfg.fault_policy.verify = true;
        nn::ExecutionEngine engine(ecfg);

        Rng rng(25);
        const size_t shapes[][3] = {
            {50, 40, 30}, {12, 12, 12}, {13, 25, 13}, {1, 64, 7},
            {29, 7, 61},
        };
        for (const auto &s : shapes) {
            Matrix a = randomMatrix(s[0], s[1], rng);
            Matrix b = randomMatrix(s[1], s[2], rng);
            for (uint64_t stream = 0; stream < 8; ++stream)
                engine.gemm(a, b, stream);
        }
        nn::EngineStatus st = engine.status();
        EXPECT_EQ(st.faults_detected, 0u)
            << "sampler " << static_cast<int>(sampler);
        EXPECT_EQ(st.quarantined_replicas, 0u);
    }
}

// ---- quarantine + reshard --------------------------------------------

TEST(Fault, QuarantineReshardsOverSurvivorsBitExactly)
{
    Rng rng(26);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    nn::EngineConfig ecfg = baseConfig();
    ecfg.faults.replicas.resize(4);
    ecfg.faults.replicas[1].dead = true;
    ecfg.fault_policy.quarantine_threshold = 2;
    nn::ExecutionEngine engine(ecfg);
    nn::ExecutionEngine clean(baseConfig());

    // First product: the dead replica faults on every tile it owns,
    // crosses the threshold, and is quarantined — but the recovered
    // result is still bit-identical to the fault-free engine.
    Matrix first = engine.gemm(a, b, /*stream=*/31);
    EXPECT_EQ(first.maxAbsDiff(clean.gemm(a, b, 31)), 0.0);
    nn::EngineStatus st = engine.status();
    EXPECT_EQ(st.quarantined_replicas, 1u);
    EXPECT_EQ(st.healthy_replicas, 3u);
    EXPECT_EQ(st.quarantines, 1u);
    EXPECT_FALSE(st.degraded);

    // Subsequent products reshard over the three survivors: the dead
    // replica is out of rotation, so no new faults fire — and results
    // stay bit-identical (tile noise is replica-independent).
    const uint64_t detected_after_first = st.faults_detected;
    Matrix second = engine.gemm(a, b, /*stream=*/32);
    EXPECT_EQ(second.maxAbsDiff(clean.gemm(a, b, 32)), 0.0);
    EXPECT_EQ(engine.status().faults_detected, detected_after_first);
}

// ---- retry exhaustion ------------------------------------------------

TEST(Fault, RetryExhaustionThrowsEngineFaultError)
{
    // Every replica dead and quarantine out of reach: the tile burns
    // its retry budget across replicas and the product must surface a
    // typed, catchable error — not abort, not return garbage.
    Rng rng(27);
    Matrix a = randomMatrix(24, 20, rng);
    Matrix b = randomMatrix(20, 18, rng);

    nn::EngineConfig ecfg = baseConfig();
    ecfg.faults.replicas.resize(4);
    for (auto &r : ecfg.faults.replicas)
        r.dead = true;
    ecfg.fault_policy.max_tile_retries = 2;
    ecfg.fault_policy.quarantine_threshold = 1000;
    nn::ExecutionEngine engine(ecfg);
    EXPECT_THROW(engine.gemm(a, b, /*stream=*/1),
                 nn::EngineFaultError);
}

// ---- graceful degradation --------------------------------------------

TEST(Fault, AllReplicasQuarantinedDegradesToReferencePath)
{
    // Aggressive quarantine + a retry budget that outlasts the
    // replica count: the first product quarantines everything and
    // each tile, having failed on every replica, finishes on the
    // digital fallback; later products run unchecked (degraded). Both
    // are bit-identical to a fault-free engine with the same sampler —
    // the failure mode costs speed, not answers.
    Rng rng(28);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    for (core::NoiseSampler sampler :
         {core::NoiseSampler::BitExact, core::NoiseSampler::Fast}) {
        const int which = static_cast<int>(sampler);
        nn::EngineConfig clean_cfg = baseConfig();
        clean_cfg.dptc.noise.sampler = sampler;
        nn::EngineConfig ecfg = clean_cfg;
        ecfg.faults.replicas.resize(4);
        for (auto &r : ecfg.faults.replicas)
            r.dead = true;
        ecfg.fault_policy.max_tile_retries = 8;
        ecfg.fault_policy.quarantine_threshold = 1;
        nn::ExecutionEngine engine(ecfg);
        nn::ExecutionEngine clean(clean_cfg);

        Matrix during = engine.gemm(a, b, /*stream=*/41);
        EXPECT_EQ(during.maxAbsDiff(clean.gemm(a, b, 41)), 0.0)
            << "sampler " << which;
        nn::EngineStatus st = engine.status();
        EXPECT_TRUE(st.degraded) << "sampler " << which;
        EXPECT_EQ(st.healthy_replicas, 0u);
        EXPECT_EQ(st.quarantined_replicas, 4u);
        EXPECT_EQ(st.quarantines, 4u);

        const uint64_t detected = st.faults_detected;
        const uint64_t draws_before = engine.stats().gaussian_draws.load();
        const uint64_t clean_before = clean.stats().gaussian_draws.load();
        Matrix after = engine.gemm(a, b, /*stream=*/42);
        EXPECT_EQ(after.maxAbsDiff(clean.gemm(a, b, 42)), 0.0)
            << "sampler " << which;
        // Quarantined cores no longer execute — no further detections.
        EXPECT_EQ(engine.status().faults_detected, detected);
        // The degraded product still counts its draws: exactly what
        // the clean engine draws for it.
        const uint64_t clean_draws =
            clean.stats().gaussian_draws.load() - clean_before;
        EXPECT_GT(clean_draws, 0u);
        EXPECT_EQ(engine.stats().gaussian_draws.load() - draws_before,
                  clean_draws)
            << "sampler " << which;
    }
}

// ---- FaultModel unit behaviour ---------------------------------------

TEST(Fault, CorruptTileIsDeterministicPerAddress)
{
    // The injector is a pure function of (seed, replica, stream,
    // tile): corrupting the same region twice gives the same bytes.
    core::FaultConfig fcfg;
    fcfg.replicas.resize(2);
    fcfg.replicas[1].bitflip_prob = 0.2;
    fcfg.replicas[1].activation_prob = 0.7;
    core::FaultModel model(fcfg);

    Rng rng(29);
    Matrix base = randomMatrix(12, 12, rng);
    Matrix m1 = base;
    Matrix m2 = base;
    bool hit1 = false;
    bool hit2 = false;
    for (size_t tile = 0; tile < 16; ++tile) {
        hit1 |= model.corruptTile(1, 77, tile, m1, 0, 12, 0, 12, 1.0);
        hit2 |= model.corruptTile(1, 77, tile, m2, 0, 12, 0, 12, 1.0);
    }
    EXPECT_TRUE(hit1);
    EXPECT_EQ(hit1, hit2);
    EXPECT_EQ(m1.maxAbsDiff(m2), 0.0);
    // A healthy replica never corrupts anything.
    Matrix m3 = base;
    EXPECT_FALSE(model.corruptTile(0, 77, 0, m3, 0, 12, 0, 12, 1.0));
    EXPECT_EQ(m3.maxAbsDiff(base), 0.0);
}

} // namespace
