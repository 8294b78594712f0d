#include "request_queue.hh"

#include <stdexcept>
#include <utility>

#include "serve/errors.hh"

namespace lt {
namespace serve {

std::future<RequestResult>
RequestQueue::submit(Request request, uint64_t id)
{
    // Expire-on-submit: a non-positive relative deadline can never be
    // met — reject it here instead of letting it occupy a queue slot
    // until the scheduler's tick-time expiry sheds it.
    if (request.deadline &&
        *request.deadline <= std::chrono::milliseconds::zero())
        throw DeadlineExpiredError(
            "RequestQueue::submit: deadline already expired at "
            "submission");

    PendingRequest pending;
    pending.request = std::move(request);
    pending.id = id;
    pending.enqueued = std::chrono::steady_clock::now();
    if (pending.request.deadline) {
        // A deadline past the clock's range saturates to never
        // expiring: the sum would overflow steady_clock's nanoseconds.
        using Clock = std::chrono::steady_clock;
        const auto room = std::chrono::duration_cast<
            std::chrono::milliseconds>(Clock::time_point::max() -
                                       pending.enqueued);
        pending.deadline = *pending.request.deadline < room
                               ? pending.enqueued + *pending.request.deadline
                               : Clock::time_point::max();
    }
    std::future<RequestResult> future = pending.promise.get_future();

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            throw std::runtime_error(
                "RequestQueue::submit after close (the server was "
                "drained or stopped)");
        queue_.push_back(std::move(pending));
    }
    cv_.notify_all();
    return future;
}

std::optional<PendingRequest>
RequestQueue::takeIf(
    const std::function<bool(const PendingRequest &)> &pred)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty())
        return std::nullopt;

    // Starvation aging first: an entry overtaken too many times is
    // the candidate no matter its class (oldest such wins).
    size_t pick = 0;
    bool aged = false;
    for (size_t i = 0; i < queue_.size() && !aged; ++i)
        if (queue_[i].bypassed >= kStarvationBypassLimit) {
            pick = i;
            aged = true;
        }
    if (!aged) {
        // Highest priority class; EDF within the class (finite
        // deadline beats none); FIFO on full ties (the scan keeps the
        // earlier entry unless the later one is strictly better).
        for (size_t i = 1; i < queue_.size(); ++i) {
            const PendingRequest &best = queue_[pick];
            const PendingRequest &cand = queue_[i];
            if (cand.request.priority != best.request.priority) {
                if (cand.request.priority > best.request.priority)
                    pick = i;
                continue;
            }
            if (cand.deadline &&
                (!best.deadline || *cand.deadline < *best.deadline))
                pick = i;
        }
    }

    // A rejected candidate keeps its claim on the next free slot:
    // nothing overtakes it while `pred` (the pool budget) says no.
    if (!pred(queue_[pick]))
        return std::nullopt;
    std::optional<PendingRequest> taken(std::move(queue_[pick]));
    for (size_t i = 0; i < pick; ++i)
        queue_[i].bypassed += 1;
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(pick));
    return taken;
}

bool
RequestQueue::waitForWork(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout,
                 [&] { return !queue_.empty() || closed_; });
    return !queue_.empty();
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

} // namespace serve
} // namespace lt
