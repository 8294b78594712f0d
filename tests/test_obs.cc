/**
 * @file
 * Tests for src/obs/: the TraceRecorder's ring semantics (wraparound
 * with an exact dropped-events count, per-lane ordering under
 * multi-thread emission), TraceScope nesting and disabled-path
 * no-ops, structural well-formedness of the Chrome trace_event JSON
 * export, and obs::Histogram bucket boundaries + percentile estimates
 * (including small-sample parity vs the nearest-rank reference the
 * old sorted-vector Metrics used).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/histogram.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"

namespace {

using namespace lt;

/** Installs a recorder for the test's scope, uninstalls on exit. */
struct ScopedRecorder
{
    explicit ScopedRecorder(size_t capacity = 1024) : rec(capacity)
    {
        obs::installRecorder(&rec);
    }
    ~ScopedRecorder() { obs::installRecorder(nullptr); }
    obs::TraceRecorder rec;
};

/** Nearest-rank percentile over raw samples — the exact reference
 *  serve::Metrics used before histograms. */
double
nearestRank(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    double rank =
        std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

// ------------------------------------------------------------ recorder

TEST(TraceRecorder, DisabledEmitsNothingAndCostsNoRegistration)
{
    ASSERT_EQ(obs::recorder(), nullptr);
    obs::traceInstant("noop");
    obs::traceCounter("noop", 1);
    {
        obs::TraceScope span("noop");
        EXPECT_FALSE(span.enabled());
        span.setArg(0, "x", 1);
    }
    // Still no recorder, and installing a fresh one shows no lanes
    // from the disabled-path calls above.
    ScopedRecorder sr;
    EXPECT_EQ(sr.rec.threadLanes(), 0u);
    EXPECT_EQ(sr.rec.droppedEvents(), 0u);
}

TEST(TraceRecorder, RecordsInstantsWithPayload)
{
    ScopedRecorder sr;
    obs::traceInstant("evt/a", 7, "tokens", 3, "batch", 2);
    obs::traceInstant("evt/b");
    auto lanes = sr.rec.snapshot();
    ASSERT_EQ(lanes.size(), 1u);
    ASSERT_EQ(lanes[0].events.size(), 2u);
    const obs::TraceEvent &e = lanes[0].events[0];
    EXPECT_STREQ(e.name, "evt/a");
    EXPECT_EQ(e.type, obs::EventType::Instant);
    EXPECT_EQ(e.request_id, 7u);
    ASSERT_EQ(e.numArgs(), 2u);
    EXPECT_STREQ(e.arg_names[0], "tokens");
    EXPECT_EQ(e.args[0], 3);
    EXPECT_STREQ(e.arg_names[1], "batch");
    EXPECT_EQ(e.args[1], 2);
    EXPECT_EQ(lanes[0].events[1].request_id, obs::kNoRequest);
}

TEST(TraceRecorder, RingWrapsDroppingOldestWithExactCount)
{
    obs::TraceRecorder rec(8);
    obs::installRecorder(&rec);
    for (int64_t i = 0; i < 20; ++i)
        obs::traceInstant("tick", obs::kNoRequest, "i", i);
    obs::installRecorder(nullptr);

    EXPECT_EQ(rec.droppedEvents(), 12u);
    auto lanes = rec.snapshot();
    ASSERT_EQ(lanes.size(), 1u);
    EXPECT_EQ(lanes[0].dropped, 12u);
    ASSERT_EQ(lanes[0].events.size(), 8u);
    // Oldest-first, and exactly the newest 8 survive: i = 12..19.
    for (size_t k = 0; k < 8; ++k)
        EXPECT_EQ(lanes[0].events[k].args[0],
                  static_cast<int64_t>(12 + k));
}

TEST(TraceRecorder, PerThreadLanesKeepTheirOwnOrder)
{
    ScopedRecorder sr(1 << 12);
    constexpr int kThreads = 4;
    constexpr int64_t kEvents = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            for (int64_t i = 0; i < kEvents; ++i)
                obs::traceInstant("t", obs::kNoRequest, "thread", t,
                                  "seq", i);
        });
    for (auto &th : threads)
        th.join();

    auto lanes = sr.rec.snapshot();
    ASSERT_EQ(lanes.size(), static_cast<size_t>(kThreads));
    EXPECT_EQ(sr.rec.droppedEvents(), 0u);
    for (const auto &lane : lanes) {
        ASSERT_EQ(lane.events.size(), static_cast<size_t>(kEvents));
        // One producer per lane: its events stay in emit order, with
        // monotonically nondecreasing timestamps.
        const int64_t thread_tag = lane.events[0].args[0];
        for (int64_t i = 0; i < kEvents; ++i) {
            EXPECT_EQ(lane.events[i].args[0], thread_tag);
            EXPECT_EQ(lane.events[i].args[1], i);
            if (i > 0)
                EXPECT_GE(lane.events[i].ts_ns,
                          lane.events[i - 1].ts_ns);
        }
    }
}

TEST(TraceScope, NestedSpansRecordContainedDurations)
{
    ScopedRecorder sr;
    {
        obs::TraceScope outer("outer");
        {
            obs::TraceScope inner("inner", 5, "layer", 1);
            (void)inner;
        }
    }
    auto lanes = sr.rec.snapshot();
    ASSERT_EQ(lanes.size(), 1u);
    ASSERT_EQ(lanes[0].events.size(), 2u);
    // Destructor order: inner closes (and emits) first.
    const obs::TraceEvent &inner = lanes[0].events[0];
    const obs::TraceEvent &outer = lanes[0].events[1];
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(inner.type, obs::EventType::Span);
    EXPECT_EQ(inner.request_id, 5u);
    // Containment: outer starts no later and ends no earlier.
    EXPECT_LE(outer.ts_ns, inner.ts_ns);
    EXPECT_GE(outer.ts_ns + outer.dur_ns, inner.ts_ns + inner.dur_ns);
}

TEST(TraceScope, SetArgAttachesLatePayload)
{
    ScopedRecorder sr;
    {
        obs::TraceScope span("work");
        span.setArg(0, "macs", 1234);
        span.setArg(2, "encoded", 1);
        span.setArg(99, "ignored", 7); // out of range: no-op
    }
    auto lanes = sr.rec.snapshot();
    const obs::TraceEvent &e = lanes.at(0).events.at(0);
    EXPECT_STREQ(e.arg_names[0], "macs");
    EXPECT_EQ(e.args[0], 1234);
    // Arg 1 unset -> numArgs stops there by contract.
    EXPECT_EQ(e.numArgs(), 1u);
    EXPECT_STREQ(e.arg_names[2], "encoded");
}

// ------------------------------------------------------------- export

TEST(TraceExport, ChromeJsonIsStructurallyWellFormed)
{
    ScopedRecorder sr;
    obs::traceInstant("req/submit", 3, "prompt_tokens", 4);
    {
        obs::TraceScope span("tick/decode", obs::kNoRequest, "batch",
                             2);
        (void)span;
    }
    obs::traceCounter("queue_depth", 5);

    std::ostringstream os;
    obs::writeChromeTrace(os, sr.rec.snapshot());
    const std::string json = os.str();

    // Structural checks a JSON parser would enforce: balanced
    // braces/brackets outside strings, and the trace_event envelope.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    int depth = 0;
    int min_depth = 1;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            min_depth = std::min(min_depth, depth);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GE(min_depth, 0);
    EXPECT_FALSE(in_string);

    // Span, instant, counter, and metadata records all present.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    // The request-tagged instant is mirrored onto the pid-2 virtual
    // request lane with a named track.
    EXPECT_NE(json.find("\"name\":\"request 3\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2,\"tid\":3"), std::string::npos);
}

TEST(TraceExport, PhaseBreakdownStripsNestedSpansFromAdmission)
{
    std::vector<obs::TraceRecorder::LaneSnapshot> lanes(1);
    auto span = [](const char *name, uint64_t ts_ms, uint64_t dur_ms) {
        obs::TraceEvent e;
        e.name = name;
        e.type = obs::EventType::Span;
        e.ts_ns = ts_ms * 1000000ull;
        e.dur_ns = dur_ms * 1000000ull;
        return e;
    };
    // admission [0,10) contains prefill [1,5) and pool admit [6,7);
    // decode [10,18).
    lanes[0].events = {span("tick/admission", 0, 10),
                       span("req/prefill", 1, 4),
                       span("pool/admit", 6, 1),
                       span("tick/decode", 10, 8)};
    obs::PhaseBreakdown pb = obs::phaseBreakdown(lanes);
    EXPECT_NEAR(pb.admission_ms, 5.0, 1e-9);
    EXPECT_NEAR(pb.prefill_ms, 4.0, 1e-9);
    EXPECT_NEAR(pb.pool_ms, 1.0, 1e-9);
    EXPECT_NEAR(pb.decode_ms, 8.0, 1e-9);
    EXPECT_NEAR(pb.totalMs(), 18.0, 1e-9);

    // Chunked prefill: chunk spans (here [18,21)) run outside
    // tick/admission, so they count as prefill and leave admission
    // alone.
    lanes[0].events.push_back(span("tick/prefill_chunk", 18, 3));
    pb = obs::phaseBreakdown(lanes);
    EXPECT_NEAR(pb.admission_ms, 5.0, 1e-9);
    EXPECT_NEAR(pb.prefill_ms, 7.0, 1e-9);
    EXPECT_NEAR(pb.pool_ms, 1.0, 1e-9);
    EXPECT_NEAR(pb.decode_ms, 8.0, 1e-9);
    EXPECT_NEAR(pb.totalMs(), 21.0, 1e-9);
}

TEST(TraceExport, RequestTimelineListsEventsInTimeOrder)
{
    ScopedRecorder sr;
    obs::traceInstant("req/submit", 11);
    obs::traceInstant("req/admitted", 11);
    obs::traceInstant("req/complete", 11, "tokens", 4);
    std::ostringstream os;
    obs::writeRequestTimelines(os, sr.rec.snapshot());
    const std::string text = os.str();
    const size_t submit = text.find("req/submit");
    const size_t admitted = text.find("req/admitted");
    const size_t complete = text.find("req/complete");
    ASSERT_NE(submit, std::string::npos);
    ASSERT_NE(admitted, std::string::npos);
    ASSERT_NE(complete, std::string::npos);
    EXPECT_LT(submit, admitted);
    EXPECT_LT(admitted, complete);
    EXPECT_NE(text.find("request 11:"), std::string::npos);
    EXPECT_NE(text.find("tokens=4"), std::string::npos);
}

// ---------------------------------------------------------- histogram

TEST(Histogram, BucketBoundariesAreLogScaled)
{
    obs::Histogram h(1.0, 16.0, 1); // 4 octaves, 1 bucket each
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(0), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(3), 8.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(3), 16.0);

    h.add(1.0);  // first bucket, inclusive lower edge
    h.add(1.99); // still first
    h.add(2.0);  // second bucket, edge value
    h.add(15.9); // last bucket
    h.add(0.5);  // underflow
    h.add(16.0); // overflow (>= hi)
    h.add(1e9);  // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.underflowCount(), 1u);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 1e9);

    EXPECT_EQ(h.bucketIndex(1.5), 0u);
    EXPECT_EQ(h.bucketIndex(2.0), 1u);
    EXPECT_EQ(h.bucketIndex(15.0), 3u);
}

TEST(Histogram, EmptyAndSingleSampleAreExact)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    h.add(3.25);
    // One sample: every percentile is that sample, exactly (the
    // estimate clamps to the observed min == max).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.25);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.25);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 3.25);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.25);
    EXPECT_DOUBLE_EQ(h.mean(), 3.25);
}

TEST(Histogram, PercentilesTrackNearestRankWithinBucketResolution)
{
    // Default resolution: 8 buckets/octave -> any estimate is within
    // 2^(1/8) of the true sample, i.e. ~9% worst case one-sided;
    // geometric-midpoint representatives halve that to ~4.4%.
    std::vector<double> samples;
    obs::Histogram h;
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
        // splitmix64, deterministic across platforms.
        state += 0x9e3779b97f4a7c15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (int i = 0; i < 5000; ++i) {
        // Log-uniform latencies across 0.01 .. 100 ms.
        const double u =
            static_cast<double>(next() >> 11) / 9007199254740992.0;
        const double v = 0.01 * std::pow(10.0, 4.0 * u);
        samples.push_back(v);
        h.add(v);
    }
    for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double exact = nearestRank(samples, p);
        const double est = h.percentile(p);
        EXPECT_NEAR(est, exact, 0.05 * exact)
            << "p" << p << " estimate " << est << " vs exact "
            << exact;
    }
}

TEST(Histogram, SmallSampleParityVsNearestRank)
{
    // The serve tests pin p50/p99 on handfuls of samples; the
    // histogram must agree with nearest-rank within bucket
    // resolution there too.
    const std::vector<double> samples = {1.2, 3.7, 0.9, 14.0, 2.2,
                                         2.3, 8.8, 1.1, 0.95};
    obs::Histogram h;
    for (double s : samples)
        h.add(s);
    for (double p : {50.0, 90.0, 99.0}) {
        const double exact = nearestRank(samples, p);
        EXPECT_NEAR(h.percentile(p), exact, 0.05 * exact);
    }
    // p99 of a small sample is the max, which the histogram clamps
    // to exactly.
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 14.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 14.0);
}

TEST(Histogram, MemoryIsBoundedRegardlessOfSampleCount)
{
    obs::Histogram h;
    const size_t buckets_before = h.numBuckets();
    for (int i = 0; i < 200000; ++i)
        h.add(0.001 * (1 + (i % 997)));
    EXPECT_EQ(h.numBuckets(), buckets_before);
    EXPECT_EQ(h.count(), 200000u);
}

TEST(Histogram, RejectsDegenerateConfig)
{
    EXPECT_THROW(obs::Histogram(0.0, 1.0, 8), std::invalid_argument);
    EXPECT_THROW(obs::Histogram(1.0, 1.0, 8), std::invalid_argument);
    EXPECT_THROW(obs::Histogram(1.0, 2.0, 0), std::invalid_argument);
}

TEST(TraceRecorder, RejectsZeroCapacity)
{
    EXPECT_THROW(obs::TraceRecorder(0), std::invalid_argument);
}

} // namespace
