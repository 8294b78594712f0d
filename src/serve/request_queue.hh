/**
 * @file
 * Thread-safe request queue between submitting clients and the
 * scheduler tick.
 *
 * Clients call submit() from any thread and hold the returned future;
 * the scheduler (one consumer) pops with takeIf() each tick and
 * blocks in waitForWork() while idle. close() flips the queue into a
 * rejecting state for the server's drain/shutdown path — submissions
 * after close throw, which is the "submit after drain" misuse
 * contract tests/test_serve.cc pins down.
 */

#ifndef LT_SERVE_REQUEST_QUEUE_HH
#define LT_SERVE_REQUEST_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>

#include "serve/request.hh"

namespace lt {
namespace serve {

/** A queued request with its promise and submission timestamps. */
struct PendingRequest
{
    Request request;
    uint64_t id = 0;
    std::promise<RequestResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    /** Absolute deadline (enqueued + Request::deadline, saturated at
     *  time_point::max(), which never expires), if any. */
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /** Times a later-queued request was popped over this one —
     *  takeIf's starvation-freedom counter (bypass aging). */
    size_t bypassed = 0;
};

/** MPSC queue: many submitting threads, one scheduler consumer. */
class RequestQueue
{
  public:
    /**
     * Enqueue a request (id pre-assigned by the server) and return
     * the future its result will arrive on. Throws std::runtime_error
     * once the queue is closed, and DeadlineExpiredError (see
     * serve/errors.hh) when the request's relative deadline is
     * already non-positive — expire-on-submit, so a dead-on-arrival
     * request never occupies a queue slot.
     */
    std::future<RequestResult> submit(Request request, uint64_t id);

    /**
     * After this many bypasses a waiting entry is served next
     * regardless of class — the aging bound that makes the
     * priority/EDF order below starvation-free.
     */
    static constexpr size_t kStarvationBypassLimit = 8;

    /**
     * Pop the most urgent request iff `pred` accepts it; nullopt when
     * the queue is empty or that candidate is rejected.
     *
     * Urgency order: any entry bypassed kStarvationBypassLimit times
     * wins outright (oldest such first); otherwise the highest
     * Request::priority class wins, ties broken earliest-deadline-
     * first within the class (a finite deadline beats none), and
     * remaining ties stay FIFO. With all-default requests (priority
     * 0, no deadlines) this degenerates to the historical strict
     * FIFO. A pred-rejected candidate is never overtaken — the paged
     * scheduler's no-starvation admission order (a big request
     * waiting for pool blocks keeps its turn) — so urgency reorders
     * only who gets the NEXT free slot. Popping a non-front entry
     * bumps the `bypassed` count of everything queued before it.
     */
    std::optional<PendingRequest>
    takeIf(const std::function<bool(const PendingRequest &)> &pred);

    /**
     * Block until the queue is non-empty, closed, or `timeout`
     * elapsed. Returns true when work is available.
     */
    bool waitForWork(std::chrono::milliseconds timeout);

    /** Reject all future submits (drained queues stay drained). */
    void close();

    bool closed() const;
    size_t depth() const;
    bool empty() const { return depth() == 0; }

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<PendingRequest> queue_;
    bool closed_ = false;
};

} // namespace serve
} // namespace lt

#endif // LT_SERVE_REQUEST_QUEUE_HH
