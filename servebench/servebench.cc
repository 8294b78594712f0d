/**
 * @file
 * servebench: one seeded serving workload against serve::Server, on
 * one engine thread, from one process.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *   servebench --workload NAME --seed N --seconds S --capacity
 *
 * A run (1) sets the stack up several times and keeps the last one,
 * (2) replays the seeded request plan against it with tracing off and
 * measures the end-to-end metrics, (3) re-runs every 8th request solo
 * on a fresh engine and requires bit-identical tokens, and (4) with
 * --trace 1 replays the same plan on a fresh stack under an
 * obs::TraceRecorder and a timing GemmBackend decorator for the
 * per-layer metrics. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; the end-to-end
 * metrics with --trace 0, the per-layer ones with --trace 1. Any
 * correctness failure exits 1.
 *
 * --capacity serves the same requests as one closed batch (everything
 * queued before the server starts) and prints the saturated request
 * rate the fixed workload rates were chosen from. See README.md.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/execution_engine.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "timed_backend.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace servebench {
namespace {

using namespace lt;
using Clock = std::chrono::steady_clock;

// ---- workloads --------------------------------------------------------

/** An open loop: burst_size requests every 1/rate seconds. */
struct Workload
{
    const char *name;
    double rate;
    size_t burst_size;

    size_t prompt_min, prompt_max; ///< whole prompt, prefix included
    size_t out_min, out_max;
    size_t prefixes;      ///< distinct shared system prompts (0: none)
    size_t prefix_tokens; ///< tokens of each system prompt

    size_t max_batch;
    size_t kv_blocks; ///< 0: dense KV reserve, pool bypassed
};

/**
 * The fixed workload constants. Rates are absolute, chosen once from
 * the 1-thread saturated capacity measured with --capacity (README.md
 * records the figures); nothing here is re-derived at run time.
 */
const Workload kWorkloads[] = {
    // Shared system prompts on a paged pool that holds 3 of the 4
    // prefixes while a burst is in flight: hits, evictions and
    // recomputes. Whole-prompt prefill.
    {"prefix_shared", 1.0 / 1.5, 8, 36, 40, 8, 16, 4, 32, 8, 72},
    // Decode-heavy bursts of max_batch short-prompt requests: every
    // burst is admitted at once and decodes 16 rows per stacked
    // dispatch. Dense KV, so the pool is bypassed.
    {"decode_burst", 1.0 / 3.0, 16, 4, 8, 24, 40, 0, 0, 16, 0},
};

/** Vocabulary of the served LM (see modelConfig). */
constexpr size_t kVocab = 64;

/** KV pool block size, aligned to the DPTC k-tile. */
constexpr size_t kKvBlockTokens = 8;

/** Goodput limits: a request counts when it meets both. */
constexpr double kTtftLimitMs = 1000.0;
constexpr double kTpotLimitMs = 100.0;

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** The warm-up's id lies above every workload index. */
constexpr uint64_t kWarmupRequestId = uint64_t{1} << 40;
/**
 * Set-ups timed before and after the replay, kSetupGap apart. The
 * host switches between speed states that last about a second, 1.6x
 * apart for set-up; spaced samples make the median span several of
 * them instead of whichever held at one moment.
 */
constexpr size_t kSetupsBefore = 11;
constexpr size_t kSetupsAfter = 10;
constexpr std::chrono::milliseconds kSetupGap{300};
constexpr size_t kGateStride = 8;
constexpr size_t kTraceEventsPerThread = size_t{1} << 19;

// ---- the seeded request plan -------------------------------------------

struct Planned
{
    double due_s = 0.0; ///< offset from the run's start
    serve::Request request;
};

/** 64-bit FNV-1a, fed byte by byte. */
struct Fnv1a
{
    uint64_t h = 1469598103934665603ull;

    Fnv1a &
    u64(uint64_t x)
    {
        for (int b = 0; b < 8; ++b)
            byte(static_cast<uint8_t>(x >> (8 * b)));
        return *this;
    }

    Fnv1a &
    str(const char *s)
    {
        for (; *s != '\0'; ++s)
            byte(static_cast<uint8_t>(*s));
        return *this;
    }

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
};

/**
 * Stratified lengths, block by block: each run of `block` consecutive
 * requests takes one draw from each of `block` equal strata of
 * [lo, hi], in seeded order (a Latin hypercube per block). Every
 * admission wave then carries the same length mix, so whole-run
 * medians do not swing with where a seed clusters long requests.
 */
std::vector<size_t>
stratifiedLengths(size_t n, size_t block, size_t lo, size_t hi, Rng &rng)
{
    std::vector<size_t> len(n);
    const size_t span = hi - lo + 1;
    auto g = rng.urbg();
    for (size_t b = 0; b < n; b += block) {
        const size_t m = std::min(block, n - b);
        std::vector<size_t> perm(m);
        std::iota(perm.begin(), perm.end(), 0);
        std::shuffle(perm.begin(), perm.end(), g);
        for (size_t j = 0; j < m; ++j) {
            const double u = (static_cast<double>(perm[j]) + rng.uniform()) /
                             static_cast<double>(m);
            len[b + j] = lo + std::min(span - 1, static_cast<size_t>(
                                                     u * span));
        }
    }
    return len;
}

std::vector<int>
randomTokens(size_t n, size_t vocab, Rng &rng)
{
    std::vector<int> t(n);
    for (int &x : t)
        x = static_cast<int>(
            rng.uniformInt(0, static_cast<int64_t>(vocab) - 1));
    return t;
}

std::vector<Planned>
makePlan(const Workload &w, uint64_t seed, double seconds)
{
    Rng rng(deriveSeed(seed, Fnv1a().str(w.name).h));
    const size_t n =
        w.burst_size *
        static_cast<size_t>(std::max(1ll, std::llround(seconds * w.rate)));

    const std::vector<size_t> prompt_len = stratifiedLengths(
        n, w.max_batch, w.prompt_min, w.prompt_max, rng);
    const std::vector<size_t> out_len =
        stratifiedLengths(n, w.max_batch, w.out_min, w.out_max, rng);

    std::vector<std::vector<int>> system_prompts;
    for (size_t p = 0; p < w.prefixes; ++p)
        system_prompts.push_back(
            randomTokens(w.prefix_tokens, kVocab, rng));

    // Each burst carries all prefixes but one, in near-equal shares
    // and seeded order. The absent prefix rotates (each is absent once
    // per `prefixes` bursts, in seeded order), so it sits idle while
    // the burst needs blocks: the pool evicts it LRU and recomputes it
    // when a later burst brings it back.
    std::vector<size_t> prefix_of(n, 0);
    if (w.prefixes > 1) {
        auto g = rng.urbg();
        std::vector<size_t> absent(w.prefixes);
        for (size_t b = 0, burst = 0; b < n; b += w.burst_size, ++burst) {
            if (burst % w.prefixes == 0) {
                std::iota(absent.begin(), absent.end(), 0);
                std::shuffle(absent.begin(), absent.end(), g);
            }
            const size_t skip = absent[burst % w.prefixes];
            const size_t e = std::min(n, b + w.burst_size);
            for (size_t i = b; i < e; ++i) {
                const size_t k = (i - b) % (w.prefixes - 1);
                prefix_of[i] = k < skip ? k : k + 1;
            }
            std::shuffle(prefix_of.begin() + b, prefix_of.begin() + e, g);
        }
    }

    std::vector<Planned> plan(n);
    for (size_t i = 0; i < n; ++i) {
        Planned &p = plan[i];
        p.due_s = static_cast<double>(i / w.burst_size) / w.rate;
        serve::Request &r = p.request;
        if (w.prefixes > 0) {
            r.prompt = system_prompts[prefix_of[i]];
            r.shared_prefix_tokens = w.prefix_tokens;
        }
        const std::vector<int> tail = randomTokens(
            prompt_len[i] - r.prompt.size(), kVocab, rng);
        r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
        r.max_new_tokens = out_len[i];
        r.request_id = i;
    }
    return plan;
}

// ---- the serving stack ------------------------------------------------

/** bench_serve_throughput's LM with room for 96 positions. */
nn::TransformerConfig
modelConfig()
{
    nn::TransformerConfig cfg;
    cfg.dim = 32;
    cfg.depth = 2;
    cfg.heads = 2;
    cfg.mlp_hidden = 64;
    cfg.vocab_size = kVocab;
    cfg.num_classes = kVocab;
    cfg.max_tokens = 96;
    cfg.pooling = nn::Pooling::LastToken;
    cfg.causal = true;
    return cfg;
}

/** 8-bit operands, paper noise, bit-exact sampler (the defaults). */
core::DptcConfig
dptcConfig()
{
    core::DptcConfig d;
    d.input_bits = 8;
    return d;
}

serve::ServerConfig
serverConfig(const Workload &w, size_t max_batch)
{
    serve::ServerConfig s;
    s.scheduler.max_batch = max_batch;
    s.quant = nn::QuantConfig::w8a8();
    s.kv_pool.block_tokens = kKvBlockTokens;
    s.kv_pool.num_blocks = w.kv_blocks;
    return s;
}

/** Members in construction order, so they are destroyed in reverse. */
struct Stack
{
    std::unique_ptr<nn::TransformerClassifier> model;
    std::unique_ptr<nn::ExecutionEngine> engine;
    std::unique_ptr<TimedBackend> backend;
    std::unique_ptr<serve::Server> server;
    std::vector<int> warmup_tokens;
};

/** A request sharing no prefix with any workload request. */
serve::Request
warmupRequest()
{
    Rng rng(0x5e7a9);
    serve::Request r;
    r.prompt = randomTokens(8, kVocab, rng);
    r.max_new_tokens = 4;
    r.request_id = kWarmupRequestId;
    return r;
}

/**
 * Build model + engine + decorator + server and serve one warm-up
 * request inline, so lazy weight-plan encoding is paid here. The
 * server thread is not started: the caller decides when.
 */
std::unique_ptr<Stack>
buildStack(const Workload &w, bool timed)
{
    auto stack = std::make_unique<Stack>();
    Stack &s = *stack;
    s.model = std::make_unique<nn::TransformerClassifier>(
        modelConfig());
    s.engine = std::make_unique<nn::ExecutionEngine>(
        dptcConfig(), core::EvalMode::Noisy);
    s.backend = std::make_unique<TimedBackend>(*s.engine, timed);
    s.server = std::make_unique<serve::Server>(
        *s.model, *s.backend, serverConfig(w, w.max_batch));
    auto fut = s.server->submit(warmupRequest());
    s.server->runUntilIdle();
    s.warmup_tokens = fut.get().generated;
    return stack;
}

// ---- one measured run ---------------------------------------------------

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Engine counters, read from the program's own GemmStats. */
struct EngineCounts
{
    uint64_t macs = 0;
    uint64_t gaussian_draws = 0;
    uint64_t weight_hits = 0, weight_misses = 0;
    uint64_t kv_hits = 0, kv_misses = 0;
};

EngineCounts
readCounts(const nn::GemmStats &s)
{
    EngineCounts c;
    c.macs = s.macs.load();
    c.gaussian_draws = s.gaussian_draws.load();
    c.weight_hits = s.weight_encode_hits.load();
    c.weight_misses = s.weight_encode_misses.load();
    c.kv_hits = s.kv_encode_hits.load();
    c.kv_misses = s.kv_encode_misses.load();
    return c;
}

EngineCounts
operator-(const EngineCounts &a, const EngineCounts &b)
{
    return {a.macs - b.macs,
            a.gaussian_draws - b.gaussian_draws,
            a.weight_hits - b.weight_hits,
            a.weight_misses - b.weight_misses,
            a.kv_hits - b.kv_hits,
            a.kv_misses - b.kv_misses};
}

struct Outcome
{
    bool ok = false; ///< resolved with a result, not expired
    double ttft_ms = 0.0; ///< from due time
    double tpot_ms = 0.0;
    double late_ms = 0.0;   ///< submit() start after due
    double submit_us = 0.0; ///< submit() call duration
    size_t prompt_tokens = 0;
    std::vector<int> tokens;
};

struct RunResult
{
    std::vector<Outcome> requests;
    double window_s = 0.0; ///< first due -> last completion
    size_t rejected = 0;
    size_t failed = 0; ///< future delivered an exception
    size_t expired = 0;
    serve::MetricsSnapshot warm; ///< after the warm-up
    serve::MetricsSnapshot end;  ///< after the run
    EngineCounts counts;         ///< the run only
    TimedBackend::Totals layers; ///< the run only
    double peak_rss_mb = 0.0;
};

/**
 * Pin the calling thread (and threads it creates later) to one CPU.
 * Best effort: on failure the thread keeps its mask.
 */
void
pinCallingThread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

struct Cpus
{
    int server = 0;
    int loadgen = 0;
};

/**
 * CPUs for the serving thread and the load generator: the two
 * highest the process may use (one CPU serves both when only one is
 * allowed). Pinned, neither thread migrates between cores and loses
 * its warm L1/L2. Call before pinning anything: it reads the calling
 * thread's mask.
 */
Cpus
chooseCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    if (cpus.empty())
        return {0, 0};
    const int server = cpus.back();
    return {server, cpus.size() > 1 ? cpus[cpus.size() - 2] : server};
}

/**
 * The process's peak resident set (VmHWM). Not getrusage's ru_maxrss:
 * that keeps the high-water mark from before exec, which is the
 * forked launcher's footprint when the program itself is smaller.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * Replay `plan` against the stack. Open loops submit each request at
 * its due time from this thread while the server thread computes; the
 * closed batch is queued whole before start(). Every latency is taken
 * from the request's due time. The caller runs on `cpus.server`; the
 * server thread starts there and this thread generates load from
 * `cpus.loadgen`, returning to `cpus.server` afterwards.
 */
RunResult
replay(Stack &s, const std::vector<Planned> &plan, bool closed,
       const Cpus &cpus)
{
    RunResult r;
    r.warm = s.server->metrics();
    const EngineCounts before = readCounts(s.backend->stats());
    s.backend->resetTotals();

    const size_t n = plan.size();
    std::vector<std::optional<std::future<serve::RequestResult>>> futs(n);
    std::vector<Clock::time_point> submitted(n);
    r.requests.resize(n);

    auto submit = [&](size_t i) {
        const Clock::time_point s0 = Clock::now();
        try {
            futs[i] = s.server->submit(plan[i].request);
        } catch (const std::exception &e) {
            std::cerr << "request " << i << " rejected: " << e.what()
                      << "\n";
            ++r.rejected;
        }
        submitted[i] = s0;
        r.requests[i].submit_us = 1e3 * msBetween(s0, Clock::now());
        r.requests[i].prompt_tokens = plan[i].request.prompt.size();
    };

    // The closed batch is due when the server starts; open loops take
    // a short lead so the first request is not late.
    if (closed)
        for (size_t i = 0; i < n; ++i)
            submit(i);
    s.server->start();
    pinCallingThread(cpus.loadgen);
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(closed ? 0 : 20);
    auto dueOf = [&](size_t i) {
        return closed ? t0
                      : t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     plan[i].due_s));
    };
    if (!closed)
        for (size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(dueOf(i));
            submit(i);
            r.requests[i].late_ms = msBetween(dueOf(i), submitted[i]);
        }

    Clock::time_point last = t0;
    for (size_t i = 0; i < n; ++i) {
        if (!futs[i])
            continue;
        Outcome &o = r.requests[i];
        const Clock::time_point due = dueOf(i);
        try {
            serve::RequestResult res = futs[i]->get();
            const double from_due = msBetween(due, submitted[i]);
            o.ttft_ms = from_due + res.ttft_ms;
            o.tpot_ms =
                res.generated.size() > 1
                    ? (res.total_ms - res.ttft_ms) /
                          static_cast<double>(res.generated.size() - 1)
                    : 0.0;
            o.tokens = std::move(res.generated);
            o.ok = !res.expired;
            r.expired += res.expired ? 1 : 0;
            last = std::max(
                last, submitted[i] +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  res.total_ms)));
        } catch (const std::exception &e) {
            std::cerr << "request " << i << " failed: " << e.what()
                      << "\n";
            ++r.failed;
        }
    }
    r.peak_rss_mb = peakRssMb();
    s.server->drain(); // joins the server thread: counters are final
    pinCallingThread(cpus.server);
    r.window_s = msBetween(t0, last) / 1e3;
    r.end = s.server->metrics();
    r.counts = readCounts(s.backend->stats()) - before;
    r.layers = s.backend->totals();
    return r;
}

// ---- statistics -------------------------------------------------------

/** Linear-interpolated percentile (q in [0,1]); 0 for no samples. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

template <typename F>
std::vector<double>
collect(const RunResult &r, F f)
{
    std::vector<double> v;
    for (const Outcome &o : r.requests)
        if (o.ok)
            v.push_back(f(o));
    return v;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a over every request's index and tokens, in index order. */
uint64_t
tokenDigest(const RunResult &r)
{
    Fnv1a f;
    for (size_t i = 0; i < r.requests.size(); ++i) {
        f.u64(i).u64(r.requests[i].tokens.size());
        for (int t : r.requests[i].tokens)
            f.u64(static_cast<uint64_t>(t));
    }
    return f.h;
}

size_t
tokensOf(const RunResult &r)
{
    size_t n = 0;
    for (const Outcome &o : r.requests)
        n += o.tokens.size();
    return n;
}

/** A fixed ALU loop: tells a slow machine period from a regression. */
double
hostProbeMs(uint64_t seed, uint64_t &sink)
{
    const Clock::time_point t0 = Clock::now();
    uint64_t x = seed | 1;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0x9e3779b97f4a7c15ull;
    }
    sink ^= x;
    return msBetween(t0, Clock::now());
}

// ---- correctness gate -------------------------------------------------

/**
 * Re-run every kGateStride-th request alone on a fresh engine and a
 * 1-wide server of the same configuration; its tokens must match the
 * served ones bit-for-bit.
 */
size_t
soloMismatches(const Workload &w, const std::vector<Planned> &plan,
               const RunResult &r, size_t &checked)
{
    const nn::TransformerClassifier model(modelConfig());
    size_t bad = 0;
    checked = 0;
    for (size_t i = 0; i < plan.size(); i += kGateStride) {
        if (!r.requests[i].ok)
            continue;
        nn::ExecutionEngine engine(dptcConfig(), core::EvalMode::Noisy);
        serve::Server solo(model, engine, serverConfig(w, 1));
        auto fut = solo.submit(plan[i].request);
        solo.runUntilIdle();
        ++checked;
        if (fut.get().generated != r.requests[i].tokens) {
            std::cerr << "request " << i
                      << ": served tokens differ from its solo run\n";
            ++bad;
        }
    }
    return bad;
}

// ---- per-layer metrics from a traced run --------------------------------

/** `req/queued` -> `req/admitted` per workload request, in ms. */
std::vector<double>
queueWaitsMs(const obs::TraceRecorder &rec, size_t n)
{
    std::vector<int64_t> queued(n, -1), admitted(n, -1);
    for (const auto &lane : rec.snapshot())
        for (const obs::TraceEvent &e : lane.events) {
            if (e.request_id >= n)
                continue;
            if (std::strcmp(e.name, "req/queued") == 0)
                queued[e.request_id] = static_cast<int64_t>(e.ts_ns);
            else if (std::strcmp(e.name, "req/admitted") == 0)
                admitted[e.request_id] = static_cast<int64_t>(e.ts_ns);
        }
    std::vector<double> waits;
    for (size_t i = 0; i < n; ++i)
        if (queued[i] >= 0 && admitted[i] >= 0)
            waits.push_back(static_cast<double>(admitted[i] - queued[i]) /
                            1e6);
    return waits;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

// ---- output -------------------------------------------------------------

/**
 * The per-layer metrics of the traced replay `t`: engine classes from
 * the decorator, tick phases and pool state from Server::metrics(),
 * queue waits from the trace (see README.md for each definition).
 */
std::vector<Metric>
layerMetrics(const Workload &w, const RunResult &t,
             const obs::TraceRecorder &recorder, double untraced_tpot_p50,
             double probe_ms)
{
    const serve::MetricsSnapshot &e = t.end;
    const serve::MetricsSnapshot &b = t.warm;
    const double adm = e.tick_admission_ms - b.tick_admission_ms;
    const double pre = e.tick_prefill_ms - b.tick_prefill_ms;
    const double dec = e.tick_decode_ms - b.tick_decode_ms;
    const double pool = e.tick_pool_ms - b.tick_pool_ms;
    const double tick_ms = adm + pre + dec + pool;
    const TimedBackend::Totals &L = t.layers;
    const double busy = L.busyMs();
    const double macs = static_cast<double>(L.macs());
    const double ttokens = static_cast<double>(tokensOf(t));
    const double prefills = static_cast<double>(e.prefills - b.prefills);
    const double ticks =
        static_cast<double>(e.decode_ticks - b.decode_ticks);
    const serve::KvPoolStats &kv = e.kv_pool;
    double prompt_tokens = 0.0;
    for (const Outcome &o : t.requests)
        prompt_tokens += static_cast<double>(o.prompt_tokens);
    const std::vector<double> ttpot =
        collect(t, [](const Outcome &o) { return o.tpot_ms; });
    const std::vector<double> late =
        collect(t, [](const Outcome &o) { return o.late_ms; });
    const std::vector<double> submit_us =
        collect(t, [](const Outcome &o) { return o.submit_us; });
    const double late_max =
        late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
    const EngineCounts &c = t.counts;

    return {
        {"core.gaussian_draws", static_cast<double>(c.gaussian_draws),
         "count"},
        {"core.draws_per_mac",
         ratio(static_cast<double>(c.gaussian_draws), macs), "draws/MAC"},
        {"engine.busy_ms", busy, "ms"},
        {"engine.busy_frac_of_tick", ratio(busy, tick_ms), "frac"},
        {"engine.static_ms", L.static_w.ms, "ms"},
        {"engine.static_macs", static_cast<double>(L.static_w.macs),
         "MAC"},
        {"engine.dynamic_ms", L.dynamic.ms, "ms"},
        {"engine.dynamic_macs", static_cast<double>(L.dynamic.macs),
         "MAC"},
        {"engine.ns_per_mac", ratio(busy * 1e6, macs), "ns/MAC"},
        {"engine.dispatches_per_token",
         ratio(static_cast<double>(L.dispatches()), ttokens), "calls/tok"},
        {"engine.rows_per_stacked_call",
         ratio(static_cast<double>(L.stacked_rows),
               static_cast<double>(L.stacked_calls)),
         "rows/call"},
        {"engine.encode_ms", L.encode.ms, "ms"},
        {"engine.weight_encode_hit_ratio",
         ratio(static_cast<double>(c.weight_hits),
               static_cast<double>(c.weight_hits + c.weight_misses)),
         "frac"},
        {"engine.kv_encode_hit_ratio",
         ratio(static_cast<double>(c.kv_hits),
               static_cast<double>(c.kv_hits + c.kv_misses)),
         "frac"},
        // Shared-prefix computation runs the engine inside the pool
        // phase, so host time is taken over prefill + decode + pool.
        {"model.host_ms", pre + dec + pool - busy, "ms"},
        {"serve.queue_wait_ms_p50", median(queueWaitsMs(recorder, t.requests.size())),
         "ms"},
        {"serve.busy_frac", ratio(tick_ms, t.window_s * 1e3), "frac"},
        {"serve.tick_admission_ms", adm, "ms"},
        {"serve.tick_prefill_ms", pre, "ms"},
        {"serve.tick_decode_ms", dec, "ms"},
        {"serve.tick_pool_ms", pool, "ms"},
        {"serve.decode_rows_per_step",
         ratio(static_cast<double>(e.tokens_generated -
                                   b.tokens_generated) -
                   prefills,
               ticks),
         "rows/step"},
        {"serve.submit_us_p50", median(submit_us), "us"},
        {"kv_pool.prefix_hit_ratio",
         ratio(static_cast<double>(kv.prefix_hits),
               static_cast<double>(kv.prefix_hits + kv.prefix_misses)),
         "frac"},
        {"kv_pool.prompt_tokens_reused_frac",
         ratio(static_cast<double>(kv.prefix_hits * w.prefix_tokens),
               prompt_tokens),
         "frac"},
        {"kv_pool.evictions", static_cast<double>(kv.evictions), "count"},
        {"kv_pool.recomputes", static_cast<double>(kv.recomputes),
         "count"},
        {"kv_pool.peak_resident_kb",
         static_cast<double>(kv.peak_resident_bytes) / 1024.0, "KiB"},
        {"kv_pool.reserved_over_resident",
         ratio(static_cast<double>(kv.peak_used_blocks),
               static_cast<double>(kv.peak_resident_blocks)),
         "ratio"},
        {"obs.trace_overhead_frac",
         ratio(median(ttpot) - untraced_tpot_p50, untraced_tpot_p50),
         "frac"},
        {"obs.dropped_events",
         static_cast<double>(recorder.droppedEvents()), "count"},
        {"loadgen.late_ms_p99", percentile(late, 0.99), "ms"},
        {"loadgen.late_ms_max", late_max, "ms"},
        {"host.probe_ms", probe_ms, "ms"},
    };
}


void
printJson(bool correct, size_t attempted, size_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
printCounts(const char *label, const RunResult &r)
{
    const serve::KvPoolStats &kv = r.end.kv_pool;
    std::printf(
        "%s counts: static_macs=%llu dynamic_macs=%llu "
        "gaussian_draws=%llu weight_encode_hits=%llu "
        "weight_encode_misses=%llu kv_encode_hits=%llu "
        "kv_encode_misses=%llu prefix_hits=%zu prefix_misses=%zu "
        "evictions=%zu recomputes=%zu decode_ticks=%zu tokens=%zu\n",
        label, (unsigned long long)r.layers.static_w.macs,
        (unsigned long long)r.layers.dynamic.macs,
        (unsigned long long)r.counts.gaussian_draws,
        (unsigned long long)r.counts.weight_hits,
        (unsigned long long)r.counts.weight_misses,
        (unsigned long long)r.counts.kv_hits,
        (unsigned long long)r.counts.kv_misses, kv.prefix_hits,
        kv.prefix_misses, kv.evictions, kv.recomputes,
        r.end.decode_ticks - r.warm.decode_ticks, tokensOf(r));
}

int
usage()
{
    std::fprintf(stderr, "usage: servebench --workload "
                         "prefix_shared|decode_burst --seed N --seconds S "
                         "(--trace 0|1 | --capacity)\n");
    return 2;
}

int
run(int argc, char **argv)
{
    std::string workload;
    std::optional<uint64_t> seed;
    double seconds = 0.0;
    int trace = -1;
    bool capacity = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            workload = argv[++i];
        else if (a == "--seed" && has_value)
            seed = std::stoull(argv[++i]);
        else if (a == "--seconds" && has_value)
            seconds = std::stod(argv[++i]);
        else if (a == "--trace" && has_value)
            trace = std::stoi(argv[++i]);
        else if (a == "--capacity")
            capacity = true;
        else
            return usage();
    }
    const Workload *wp = findWorkload(workload);
    if (wp == nullptr || !seed || !(seconds > 0.0) ||
        (!capacity && trace != 0 && trace != 1))
        return usage();
    const Workload &w = *wp;

    // One engine thread: the serving thread computes every tile
    // inline; the load generator is this thread.
    ThreadPool::setGlobalThreads(1);
    const Cpus cpus = chooseCpus();
    pinCallingThread(cpus.server);
    const std::vector<Planned> plan = makePlan(w, *seed, seconds);
    std::printf("workload %s seed %llu seconds %g: %zu requests, %s, "
                "engine threads %zu, serving thread on cpu %d, load "
                "generator on cpu %d\n",
                w.name, (unsigned long long)*seed, seconds, plan.size(),
                capacity ? "closed batch" : "open loop",
                ThreadPool::global().numThreads(), cpus.server,
                cpus.loadgen);

    uint64_t sink = 0;
    const double probe_before = hostProbeMs(*seed, sink);

    // Set-up, timed several times; the last stack before the replay
    // serves it. Every warm-up must produce the same tokens.
    std::vector<double> setups;
    std::vector<int> first_warmup;
    bool warmup_stable = true;
    auto timedSetup = [&] {
        std::this_thread::sleep_for(kSetupGap);
        const Clock::time_point s0 = Clock::now();
        std::unique_ptr<Stack> s = buildStack(w, /*timed=*/false);
        setups.push_back(msBetween(s0, Clock::now()) / 1e3);
        if (first_warmup.empty())
            first_warmup = s->warmup_tokens;
        warmup_stable &= s->warmup_tokens == first_warmup;
        return s;
    };
    std::unique_ptr<Stack> stack;
    for (size_t k = 0; k < kSetupsBefore; ++k) {
        stack.reset();
        stack = timedSetup();
    }

    const RunResult r = replay(*stack, plan, capacity, cpus);
    stack.reset();
    const double probe_after = hostProbeMs(*seed + 1, sink);
    for (size_t k = 0; k < kSetupsAfter; ++k)
        timedSetup();

    const size_t n = plan.size();
    const size_t completed = n - r.rejected - r.failed;
    const size_t failed = r.rejected + r.failed + r.expired;
    const size_t tokens = tokensOf(r);
    const uint64_t digest = tokenDigest(r);

    if (capacity) {
        std::printf("capacity %s: %zu requests, %zu tokens in %.3f s = "
                    "%.3f req/s, %.1f tok/s\n",
                    w.name, n, tokens, r.window_s,
                    ratio(static_cast<double>(completed), r.window_s),
                    ratio(static_cast<double>(tokens), r.window_s));
        return failed == 0 ? 0 : 1;
    }

    size_t checked = 0;
    const size_t mismatches = soloMismatches(w, plan, r, checked);
    const bool macs_agree = r.layers.macs() == r.counts.macs;

    std::printf("requests: sent %zu completed %zu expired %zu rejected "
                "%zu failed %zu\n",
                n, completed, r.expired, r.rejected, r.failed);
    printCounts("untraced", r);
    std::printf("token digest: %016llx, solo gate: %zu/%zu match, "
                "warm-up stable: %s, decorator MACs == engine MACs: %s\n",
                (unsigned long long)digest, checked - mismatches, checked,
                warmup_stable ? "yes" : "NO", macs_agree ? "yes" : "NO");
    std::printf("host probe: %.3f ms before, %.3f ms after (sink %llx)\n",
                probe_before, probe_after, (unsigned long long)sink);
    std::printf("set-up s:");
    for (double v : setups)
        std::printf(" %.4f", v);
    std::printf("\n");

    const std::vector<double> ttft =
        collect(r, [](const Outcome &o) { return o.ttft_ms; });
    const std::vector<double> tpot =
        collect(r, [](const Outcome &o) { return o.tpot_ms; });
    const double tpot_p50 = median(tpot);

    bool correct = failed == 0 && mismatches == 0 && warmup_stable &&
                   macs_agree && completed == n;

    std::vector<Metric> metrics;
    if (trace == 0) {
        double good_tokens = 0.0;
        for (const Outcome &o : r.requests)
            if (o.ok && o.ttft_ms <= kTtftLimitMs &&
                o.tpot_ms <= kTpotLimitMs)
                good_tokens += static_cast<double>(o.tokens.size());
        metrics = {
            {"setup_s", median(setups), "s"},
            {"throughput_tok_s",
             ratio(static_cast<double>(tokens), r.window_s), "tok/s"},
            {"goodput_tok_s", ratio(good_tokens, r.window_s), "tok/s"},
            {"ttft_p50_ms", median(ttft), "ms"},
            {"ttft_p90_ms", percentile(ttft, 0.9), "ms"},
            {"tpot_p50_ms", tpot_p50, "ms"},
            {"tpot_p90_ms", percentile(tpot, 0.9), "ms"},
            {"peak_rss_mb", r.peak_rss_mb, "MB"},
        };
        for (const Metric &m : metrics)
            std::printf("  %-18s %14.4f %s\n", m.name.c_str(), m.value,
                        m.unit);
        printJson(correct, n, failed, metrics);
        return correct ? 0 : 1;
    }

    // Traced rerun of the same plan on a fresh stack.
    std::unique_ptr<Stack> traced = buildStack(w, /*timed=*/true);
    const double tprobe_before = hostProbeMs(*seed + 2, sink);
    obs::TraceRecorder recorder(kTraceEventsPerThread);
    obs::installRecorder(&recorder);
    const RunResult t = replay(*traced, plan, capacity, cpus);
    obs::installRecorder(nullptr);
    traced.reset();
    const double tprobe_after = hostProbeMs(*seed + 3, sink);

    const uint64_t traced_digest = tokenDigest(t);
    printCounts("traced", t);
    std::printf("traced token digest: %016llx (%s), host probe %.3f / "
                "%.3f ms\n",
                (unsigned long long)traced_digest,
                traced_digest == digest ? "matches" : "DIFFERS",
                tprobe_before, tprobe_after);
    correct &= traced_digest == digest && t.failed == 0 &&
               t.rejected == 0 && t.expired == 0 &&
               t.layers.macs() == t.counts.macs;

    metrics = layerMetrics(w, t, recorder, tpot_p50,
                           0.5 * (tprobe_before + tprobe_after));
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
    printJson(correct, n, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    try {
        return servebench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
