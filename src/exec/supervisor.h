/**
 * @file
 * Fork-based worker fleet for the execution engine.
 *
 * The Supervisor owns N forked copies of the current process, each
 * running exec::worker_loop over a pair of pipes. The parent ships
 * Task frames (point index + fingerprint) and collects Result frames
 * (lossless SimResult blobs, decoded on arrival); because every
 * worker was forked after the sweep was expanded, both sides hold the
 * identical point vector and only indices plus fingerprints cross the
 * pipe.
 *
 * Process isolation is what buys failure handling: a worker that
 * exits mid-point (a fatal(), an abort, a segfault) is reaped, a
 * replacement is forked, and the point is retried once on the
 * assumption the failure was transient; a second crash on the same
 * point reports it Crashed (the engine surfaces a degraded result).
 *
 * Points are dispatched in the order run() is given them (the
 * engine passes its claim order, longest first); results land in
 * per-point outcome slots keyed by the serial index, so completion
 * order never affects output order.
 *
 * Before it forks, run() trims the parent's heap (malloc_trim). A
 * forked worker's peak RSS starts at the parent's resident set, and
 * the heap freed by a previous batch's results stays resident until
 * trimmed; without the trim every worker of the next batch is charged
 * for it. Each worker trims its own heap between points likewise
 * (exec/worker.h).
 *
 * The supervisor is
 * single-threaded: dispatch, poll(2) and reaping all run on the
 * calling thread, which also keeps fork() away from any engine
 * worker threads.
 */

#ifndef SGMS_EXEC_SUPERVISOR_H
#define SGMS_EXEC_SUPERVISOR_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/experiment.h"

namespace sgms::exec
{

/** Fleet-level counters (monotone over the supervisor lifetime). */
struct SupervisorStats
{
    uint64_t dispatched = 0; ///< task frames sent (includes retries)
    uint64_t completed = 0;  ///< points with a final outcome
    uint64_t crashes = 0;    ///< workers that died mid-point
    uint64_t respawns = 0;   ///< replacement workers forked
};

class Supervisor
{
  public:
    struct Config
    {
        /** Fleet size (clamped to the number of points to run). */
        unsigned workers = 2;
        /** Attempts per point before it is reported Crashed. */
        unsigned max_attempts = 2;
    };

    /**
     * Final state of one dispatched point. A Result frame is decoded
     * as soon as the poll loop reads it, while the rest of the fleet
     * is still simulating, and its blob is freed right away: the
     * supervisor holds at most one blob at a time.
     */
    struct Outcome
    {
        enum class Kind
        {
            Ok,          ///< result holds the worker's decoded result
            Crashed,     ///< worker died on every attempt
            Undecodable, ///< the worker's blob did not decode (warned)
        };
        Kind kind = Kind::Crashed;
        SimResult result; ///< set when kind == Ok
    };

    /**
     * @param points the expanded sweep (must outlive the supervisor);
     *               workers are forked lazily by run().
     */
    Supervisor(const std::vector<Experiment> &points, Config cfg);

    /** Kills and reaps any still-live workers. */
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /**
     * Run the points named by @p indices across the fleet, first
     * dispatched first; returns one Outcome per entry of @p indices,
     * in the same order.
     * @p on_dispatch (may be null) fires on the calling thread,
     * exactly once per point, when its first attempt is dispatched.
     */
    std::vector<Outcome>
    run(const std::vector<size_t> &indices,
        const std::function<void(const Experiment &)> &on_dispatch);

    const SupervisorStats &stats() const { return stats_; }

  private:
    struct Worker
    {
        pid_t pid = -1;
        int task_fd = -1;   ///< parent writes Task frames here
        int result_fd = -1; ///< parent reads Result frames here
        bool busy = false;
        size_t index = 0;    ///< point being worked on (when busy)
        uint64_t attempt = 0;
    };

    void spawn(Worker &w);
    void shutdown_worker(Worker &w, bool kill_first);

    const std::vector<Experiment> &points_;
    Config cfg_;
    std::vector<Worker> workers_;
    SupervisorStats stats_;
};

} // namespace sgms::exec

#endif // SGMS_EXEC_SUPERVISOR_H
