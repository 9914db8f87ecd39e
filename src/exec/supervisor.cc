#include "exec/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <csignal>
#include <map>

#include <malloc.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.h"
#include "exec/ipc.h"
#include "exec/result_cache.h"
#include "exec/result_codec.h"
#include "exec/worker.h"

namespace sgms::exec
{

namespace
{

/**
 * A worker death must surface as an EPIPE write error in the parent,
 * not a fatal SIGPIPE; install SIG_IGN once, leaving any handler the
 * application set alone.
 */
void
ignore_sigpipe_once()
{
    static bool done = [] {
        struct sigaction sa;
        if (sigaction(SIGPIPE, nullptr, &sa) == 0 &&
            sa.sa_handler == SIG_DFL) {
            sa.sa_handler = SIG_IGN;
            sa.sa_flags = 0;
            sigemptyset(&sa.sa_mask);
            sigaction(SIGPIPE, &sa, nullptr);
        }
        return true;
    }();
    (void)done;
}

} // namespace

Supervisor::Supervisor(const std::vector<Experiment> &points,
                       Config cfg)
    : points_(points), cfg_(cfg)
{
    if (cfg_.workers == 0)
        cfg_.workers = 1;
    if (cfg_.max_attempts == 0)
        cfg_.max_attempts = 1;
    ignore_sigpipe_once();
}

Supervisor::~Supervisor()
{
    for (Worker &w : workers_)
        shutdown_worker(w, /*kill_first=*/w.busy);
}

void
Supervisor::spawn(Worker &w)
{
    int task_pipe[2];
    int result_pipe[2];
    if (::pipe(task_pipe) != 0)
        fatal("supervisor: pipe() failed");
    if (::pipe(result_pipe) != 0)
        fatal("supervisor: pipe() failed");

    // The child inherits stdio buffers; flush so nothing the parent
    // printed before the fork is replayed by a worker.
    std::fflush(stdout);
    std::fflush(stderr);

    pid_t pid = ::fork();
    if (pid < 0)
        fatal("supervisor: fork() failed");
    if (pid == 0) {
        // Child: drop every fd belonging to the parent side or to
        // sibling workers, keep only this worker's two pipe ends —
        // a sibling must see EOF when the *parent* closes its task
        // pipe, not wait on a copy held here.
        for (const Worker &other : workers_) {
            if (other.task_fd >= 0)
                ::close(other.task_fd);
            if (other.result_fd >= 0)
                ::close(other.result_fd);
        }
        ::close(task_pipe[1]);
        ::close(result_pipe[0]);
        worker_loop(task_pipe[0], result_pipe[1], points_);
        // worker_loop never returns.
    }

    ::close(task_pipe[0]);
    ::close(result_pipe[1]);
    w.pid = pid;
    w.task_fd = task_pipe[1];
    w.result_fd = result_pipe[0];
    w.busy = false;
}

void
Supervisor::shutdown_worker(Worker &w, bool kill_first)
{
    if (w.pid < 0)
        return;
    if (w.task_fd >= 0) {
        ::close(w.task_fd); // EOF: an idle worker exits on its own
        w.task_fd = -1;
    }
    if (kill_first)
        ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (w.result_fd >= 0) {
        ::close(w.result_fd);
        w.result_fd = -1;
    }
    w.pid = -1;
    w.busy = false;
}

std::vector<Supervisor::Outcome>
Supervisor::run(
    const std::vector<size_t> &indices,
    const std::function<void(const Experiment &)> &on_dispatch)
{
    std::vector<Outcome> outcomes(indices.size());
    if (indices.empty())
        return outcomes;

    // Map a point index back to its outcome slot.
    std::map<size_t, size_t> slot_of;
    for (size_t k = 0; k < indices.size(); ++k) {
        SGMS_ASSERT(indices[k] < points_.size());
        SGMS_ASSERT(slot_of.emplace(indices[k], k).second);
    }

    std::deque<std::pair<size_t, uint64_t>> pending; // (index, attempt)
    for (size_t idx : indices)
        pending.emplace_back(idx, 0);
    size_t remaining = indices.size();

    workers_.resize(std::min<size_t>(cfg_.workers, indices.size()));

    auto finish = [&](size_t index, Outcome o) {
        outcomes[slot_of.at(index)] = std::move(o);
        ++stats_.completed;
        --remaining;
    };

    auto dispatch_to = [&](Worker &w) {
        auto [index, attempt] = pending.front();
        pending.pop_front();
        IpcFrame task;
        task.type = FrameType::Task;
        task.index = index;
        task.arg = attempt;
        task.payload = experiment_fingerprint(points_[index]);
        if (!write_frame(w.task_fd, task)) {
            // The worker died before taking the task (the write end
            // saw EPIPE). Reap it and fork a replacement now — an
            // idle worker's fd is never polled, so leaving the corpse
            // would retry this dead pipe forever. The task goes back;
            // the death does not count against the point's attempts.
            pending.emplace_front(index, attempt);
            ++stats_.crashes;
            shutdown_worker(w, /*kill_first=*/true);
            spawn(w);
            ++stats_.respawns;
            return;
        }
        // Progress only after the task is truly handed off, and only
        // on the first attempt — the write-failure requeue above and
        // crash retries must not double-fire the callback.
        if (attempt == 0 && on_dispatch)
            on_dispatch(points_[index]);
        ++stats_.dispatched;
        w.busy = true;
        w.index = index;
        w.attempt = attempt;
    };

    // A worker died while owning a point; decide retry vs degraded
    // outcome and refill the fleet.
    auto handle_death = [&](Worker &w) {
        size_t index = w.index;
        uint64_t attempt = w.attempt;
        shutdown_worker(w, /*kill_first=*/true);
        ++stats_.crashes;
        if (attempt + 1 < cfg_.max_attempts) {
            pending.emplace_front(index, attempt + 1);
        } else {
            Outcome o;
            o.kind = Outcome::Kind::Crashed;
            finish(index, std::move(o));
        }
        if (!pending.empty()) {
            spawn(w);
            ++stats_.respawns;
        }
    };

    // A forked worker's peak RSS starts at the parent's resident set.
    // Hand the heap the previous batch freed back to the kernel first,
    // or every worker of this batch is charged for it.
    ::malloc_trim(0);

    while (remaining > 0) {
        // Keep the fleet full: fork lazily, re-fork after deaths.
        for (Worker &w : workers_) {
            if (pending.empty())
                break;
            if (w.pid < 0)
                spawn(w);
            if (!w.busy)
                dispatch_to(w);
        }

        // Wait for a result (or a worker's death).
        std::vector<struct pollfd> fds;
        std::vector<size_t> fd_worker;
        for (size_t wi = 0; wi < workers_.size(); ++wi) {
            Worker &w = workers_[wi];
            if (!w.busy)
                continue;
            fds.push_back({w.result_fd, POLLIN, 0});
            fd_worker.push_back(wi);
        }
        SGMS_ASSERT(!fds.empty()); // remaining > 0 implies work in flight

        int rc = ::poll(fds.data(), fds.size(), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("supervisor: poll() failed");
        }

        for (size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Worker &w = workers_[fd_worker[i]];
            if (!w.busy)
                continue; // already handled this round
            IpcFrame frame;
            IpcRead st = read_frame(w.result_fd, frame);
            if (st == IpcRead::Ok &&
                frame.type == FrameType::Result &&
                frame.index == w.index) {
                size_t index = w.index;
                w.busy = false;
                // Hand the worker its next point first, so it
                // simulates while this blob decodes.
                if (!pending.empty())
                    dispatch_to(w);
                Outcome o;
                o.kind = Outcome::Kind::Ok;
                if (!read_result_blob(frame.payload, o.result)) {
                    warn("exec: undecodable worker blob for point %zu",
                         index);
                    o.kind = Outcome::Kind::Undecodable;
                }
                finish(index, std::move(o));
            } else if (st == IpcRead::Ok &&
                       frame.type == FrameType::Error) {
                // Deterministic refusal (fingerprint mismatch): a
                // retry would refuse again.
                warn("exec worker refused point %llu",
                     static_cast<unsigned long long>(frame.index));
                ++stats_.crashes;
                Outcome o;
                o.kind = Outcome::Kind::Crashed;
                finish(w.index, std::move(o));
                w.busy = false;
            } else {
                // EOF, torn frame, or an off-protocol reply: the
                // worker is gone or unusable mid-point.
                handle_death(w);
            }
        }
    }

    return outcomes;
}

} // namespace sgms::exec
