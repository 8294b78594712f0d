#include "obs/trace.hh"

#include <limits>
#include <stdexcept>
#include <thread>

namespace lt {
namespace obs {

namespace {

/** The installed recorder; nullptr means tracing is off. */
std::atomic<TraceRecorder *> g_recorder{nullptr};

/** Monotonic recorder ids so thread-local sink caches never go stale
 *  across recorder destruction/reallocation at the same address. */
std::atomic<uint64_t> g_next_recorder_id{1};

std::string
threadLabel(size_t lane)
{
    return "thread-" + std::to_string(lane);
}

} // namespace

std::vector<TraceEvent>
ThreadSink::drainCopy() const
{
    const uint64_t h = head_.load(std::memory_order_acquire);
    const size_t cap = capacity_;
    const uint64_t retained = h < cap ? h : cap;
    std::vector<TraceEvent> out;
    out.reserve(retained);
    // Oldest retained event lives at index (h - retained) mod cap.
    for (uint64_t i = h - retained; i < h; ++i)
        out.push_back(ring_[i % cap]);
    return out;
}

TraceRecorder::TraceRecorder(size_t events_per_thread)
    : capacity_(events_per_thread),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{
    if (capacity_ == 0)
        throw std::invalid_argument(
            "TraceRecorder: events_per_thread must be > 0");
    if (capacity_ > std::numeric_limits<size_t>::max() / sizeof(TraceEvent))
        throw std::invalid_argument(
            "TraceRecorder: events_per_thread overflows the ring size");
}

TraceRecorder::~TraceRecorder()
{
    // Installing a recorder and destroying it while installed is a
    // caller bug, but make it fail loudly-close-to-the-cause rather
    // than as a later use-after-free in some emitting thread.
    TraceRecorder *self = this;
    g_recorder.compare_exchange_strong(self, nullptr,
                                       std::memory_order_acq_rel);
}

ThreadSink &
TraceRecorder::sink()
{
    // Cache (recorder id -> sink) per thread: after the first emit on
    // a given recorder, this is two loads and a compare.
    struct Cache
    {
        uint64_t recorder_id = 0;
        ThreadSink *sink = nullptr;
    };
    thread_local Cache cache;
    if (cache.recorder_id == id_)
        return *cache.sink;

    // Allocate the ring before taking mu_, so a new thread's first
    // emit never makes other threads' registrations, droppedEvents()
    // or snapshot() wait on it. The lane number is the registration
    // order, assigned under the lock.
    auto sink = std::make_unique<ThreadSink>(capacity_);
    std::lock_guard<std::mutex> lock(mu_);
    sink->lane_ = sinks_.size();
    sink->label_ = threadLabel(sink->lane_);
    cache.recorder_id = id_;
    cache.sink = sink.get();
    sinks_.push_back(std::move(sink));
    return *cache.sink;
}

uint64_t
TraceRecorder::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto &s : sinks_)
        total += s->dropped();
    return total;
}

size_t
TraceRecorder::threadLanes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sinks_.size();
}

std::vector<TraceRecorder::LaneSnapshot>
TraceRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<LaneSnapshot> out;
    out.reserve(sinks_.size());
    for (const auto &s : sinks_) {
        LaneSnapshot lane;
        lane.lane = s->lane();
        lane.label = s->label();
        lane.dropped = s->dropped();
        lane.events = s->drainCopy();
        out.push_back(std::move(lane));
    }
    return out;
}

TraceRecorder *
recorder()
{
    return g_recorder.load(std::memory_order_relaxed);
}

void
installRecorder(TraceRecorder *rec)
{
    g_recorder.store(rec, std::memory_order_release);
}

} // namespace obs
} // namespace lt
