/**
 * @file
 * obs::TraceRecorder — the low-overhead structured tracing core of the
 * observability subsystem.
 *
 * Design goals, in order:
 *
 *  1. Near-zero cost when disabled. Instrumentation points hold a
 *     TraceScope (RAII span) or call traceInstant(); both start with
 *     one relaxed atomic load of the installed-recorder pointer and a
 *     branch on nullptr — no clock read, no allocation, nothing else.
 *     The serve/engine hot paths stay within the perf gates of
 *     bench_engine_scaling with tracing compiled in and disabled.
 *
 *  2. No locks on the hot path when enabled. Every emitting thread
 *     owns a private fixed-capacity ring of POD TraceEvents
 *     (registered once per thread under a mutex, then written
 *     lock-free: single producer, ring index arithmetic, one release
 *     store). A full ring drops the OLDEST events and counts them —
 *     tracing degrades by forgetting history, never by blocking the
 *     scheduler tick or an engine dispatch.
 *
 *  3. Deterministic structure. Event names are static string
 *     literals (identity-comparable, no interning table); payloads
 *     are a fixed set of typed int64 args (request id, batch size,
 *     MAC count, token count, ...). Timestamps come from one
 *     steady-clock epoch per recorder, so lanes from different
 *     threads align in the exported trace.
 *
 * The recorder is installed process-globally (installRecorder) so the
 * whole stack — serve::Server, BatchScheduler, KvBlockPool,
 * nn::ExecutionEngine, nn::InferenceSession — emits into the same
 * trace without threading a pointer through every layer. Exporters
 * (obs/trace_export.hh) turn a snapshot into Chrome/Perfetto
 * trace_event JSON, per-request text timelines, and per-phase
 * breakdown tables.
 *
 * Threading contract: emit from any thread; snapshot()/droppedEvents()
 * are intended for quiescent moments (after drain / between runs) —
 * they read other threads' rings through the published head counter
 * and may miss the very last in-flight event of a still-emitting
 * thread, never tear an already-published one.
 */

#ifndef LT_OBS_TRACE_HH
#define LT_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

namespace lt {
namespace obs {

/** Request-id payload value meaning "not tied to any request". */
constexpr uint64_t kNoRequest = ~0ull;

/** What one TraceEvent records. */
enum class EventType : uint8_t
{
    Span,    ///< a duration (Chrome "X"): ts_ns + dur_ns
    Instant, ///< a point in time (Chrome "i")
    Counter  ///< a sampled value (Chrome "C"): arg(0) is the sample
};

/**
 * One recorded event. POD on purpose: ring slots are overwritten in
 * place, and `name`/arg names must be string literals (or otherwise
 * outlive the recorder) — the recorder never copies or frees them.
 */
struct TraceEvent
{
    const char *name = nullptr;
    EventType type = EventType::Instant;
    uint64_t ts_ns = 0;  ///< since the recorder's epoch
    uint64_t dur_ns = 0; ///< Span only
    uint64_t request_id = kNoRequest;

    /** Up to kMaxArgs named int64 payload fields. */
    static constexpr size_t kMaxArgs = 3;
    const char *arg_names[kMaxArgs] = {nullptr, nullptr, nullptr};
    int64_t args[kMaxArgs] = {0, 0, 0};

    size_t
    numArgs() const
    {
        size_t n = 0;
        while (n < kMaxArgs && arg_names[n] != nullptr)
            ++n;
        return n;
    }
};

/**
 * One thread's private event ring. Single producer (the owning
 * thread); the recorder reads it through the published head counter.
 *
 * The ring's slots are allocated but never initialized: a slot is
 * first written by emit(), and drainCopy() reads only written slots.
 * So a fresh sink costs one allocation, not O(capacity) work, and its
 * pages fault in as the ring fills.
 */
class ThreadSink
{
  public:
    explicit ThreadSink(size_t capacity)
        : ring_(static_cast<TraceEvent *>(
              ::operator new(capacity * sizeof(TraceEvent)))),
          capacity_(capacity)
    {
    }

    /** Append one event, overwriting the oldest when full. */
    void
    emit(const TraceEvent &e)
    {
        const uint64_t h = head_.load(std::memory_order_relaxed);
        ring_[h % capacity_] = e;
        head_.store(h + 1, std::memory_order_release);
    }

    size_t lane() const { return lane_; }
    const std::string &label() const { return label_; }
    size_t capacity() const { return capacity_; }

    /** Events ever emitted (>= capacity means the ring wrapped). */
    uint64_t
    emitted() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** Oldest events overwritten by drop-oldest wraparound. */
    uint64_t
    dropped() const
    {
        const uint64_t h = emitted();
        return h > capacity_ ? h - capacity_ : 0;
    }

    /** Copy the retained events, oldest first. */
    std::vector<TraceEvent> drainCopy() const;

  private:
    friend class TraceRecorder; // assigns lane_ and label_ at registration

    /** Frees the raw ring storage (TraceEvent is trivially destructible). */
    struct FreeRing
    {
        void operator()(TraceEvent *p) const { ::operator delete(p); }
    };

    // TraceEvent is an implicit-lifetime aggregate, so operator new's
    // storage already holds its objects; emit() assigns them.
    static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                  std::is_trivially_destructible_v<TraceEvent>);
    std::unique_ptr<TraceEvent[], FreeRing> ring_;
    size_t capacity_;
    std::atomic<uint64_t> head_{0};
    size_t lane_ = 0;
    std::string label_;
};

/** Per-thread-ring trace recorder; see the file header. */
class TraceRecorder
{
  public:
    /**
     * @param events_per_thread ring capacity of each thread lane
     *        (fixed at registration; the memory bound is
     *        lanes x capacity x sizeof(TraceEvent)). Throws
     *        std::invalid_argument when zero.
     */
    explicit TraceRecorder(size_t events_per_thread = 1 << 16);
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * The calling thread's sink, registering it on first use (the
     * only mutex in the emit path, taken once per thread per
     * recorder).
     */
    ThreadSink &sink();

    /** Nanoseconds since this recorder's steady-clock epoch. */
    uint64_t
    nowNs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** Total events dropped to ring wraparound, across all lanes. */
    uint64_t droppedEvents() const;

    /** Registered thread lanes so far. */
    size_t threadLanes() const;

    /** One lane's retained events plus its identity. */
    struct LaneSnapshot
    {
        size_t lane = 0;
        std::string label;
        uint64_t dropped = 0;
        std::vector<TraceEvent> events; ///< oldest first
    };

    /** Copy every lane's retained events (see threading contract). */
    std::vector<LaneSnapshot> snapshot() const;

    size_t eventsPerThread() const { return capacity_; }

  private:
    const size_t capacity_;
    const uint64_t id_; ///< process-unique, for thread-local caching
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadSink>> sinks_;
};

/**
 * The installed recorder, or nullptr when tracing is disabled — ONE
 * relaxed atomic load, the whole cost of a disabled instrumentation
 * point.
 */
TraceRecorder *recorder();

/**
 * Install (or, with nullptr, uninstall) the process-global recorder.
 * The caller keeps ownership and must uninstall before destroying it.
 * Not a hot-path function.
 */
void installRecorder(TraceRecorder *rec);

/** Emit an instant event on the calling thread's lane. */
inline void
traceInstant(const char *name, uint64_t request_id = kNoRequest,
             const char *a0_name = nullptr, int64_t a0 = 0,
             const char *a1_name = nullptr, int64_t a1 = 0)
{
    TraceRecorder *rec = recorder();
    if (rec == nullptr)
        return;
    TraceEvent e;
    e.name = name;
    e.type = EventType::Instant;
    e.ts_ns = rec->nowNs();
    e.request_id = request_id;
    e.arg_names[0] = a0_name;
    e.args[0] = a0;
    e.arg_names[1] = a1_name;
    e.args[1] = a1;
    rec->sink().emit(e);
}

/** Emit a counter sample (rendered as a track in Perfetto). */
inline void
traceCounter(const char *name, int64_t value)
{
    TraceRecorder *rec = recorder();
    if (rec == nullptr)
        return;
    TraceEvent e;
    e.name = name;
    e.type = EventType::Counter;
    e.ts_ns = rec->nowNs();
    e.arg_names[0] = "value";
    e.args[0] = value;
    rec->sink().emit(e);
}

/**
 * RAII span: captures the start time at construction and emits ONE
 * Span event (with duration) at destruction. When no recorder is
 * installed the constructor is a pointer load and a branch — hold one
 * unconditionally in hot paths.
 *
 *   obs::TraceScope span("tick/decode", obs::kNoRequest,
 *                        "batch", batch_size);
 *
 * Args may also be attached after construction via setArg (e.g. a MAC
 * count only known once the work ran).
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name,
                        uint64_t request_id = kNoRequest,
                        const char *a0_name = nullptr, int64_t a0 = 0,
                        const char *a1_name = nullptr, int64_t a1 = 0)
        : rec_(recorder())
    {
        if (rec_ == nullptr)
            return;
        event_.name = name;
        event_.type = EventType::Span;
        event_.request_id = request_id;
        event_.arg_names[0] = a0_name;
        event_.args[0] = a0;
        event_.arg_names[1] = a1_name;
        event_.args[1] = a1;
        event_.ts_ns = rec_->nowNs();
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** Attach or overwrite payload arg `i` (no-op when disabled). */
    void
    setArg(size_t i, const char *name, int64_t value)
    {
        if (rec_ == nullptr || i >= TraceEvent::kMaxArgs)
            return;
        event_.arg_names[i] = name;
        event_.args[i] = value;
    }

    /** True when a recorder is installed (work is being traced). */
    bool enabled() const { return rec_ != nullptr; }

    ~TraceScope()
    {
        if (rec_ == nullptr)
            return;
        event_.dur_ns = rec_->nowNs() - event_.ts_ns;
        rec_->sink().emit(event_);
    }

  private:
    TraceRecorder *rec_;
    TraceEvent event_;
};

} // namespace obs
} // namespace lt

#endif // LT_OBS_TRACE_HH
