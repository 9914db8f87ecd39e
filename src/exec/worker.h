/**
 * @file
 * The forked worker's side of the multi-process execution mode.
 *
 * A worker is forked from the parent *after* the sweep grid was
 * expanded, so it holds the identical point vector by construction.
 * Its loop is deliberately tiny: read a Task frame naming a point
 * index, cross-check the parent's fingerprint against its own view
 * of that point, run the simulation, and reply with the lossless
 * result blob, trimming its heap (malloc_trim) before each task so
 * that a worker's peak RSS is that of its largest point, not of the
 * points it ran in turn. On EOF (supervisor closed the task pipe) or
 * any pipe error it calls _exit — never exit() — so no inherited
 * destructor (such as a static engine's) runs in the child.
 *
 * Test hooks (read from the environment at loop start, all unset in
 * normal operation):
 *
 *   SGMS_TEST_WORKER_CRASH_INDEX=I   _exit before replying to point
 *                                    I on its FIRST attempt only
 *                                    (drives respawn-and-retry)
 *   SGMS_TEST_WORKER_CRASH_ALWAYS=I  _exit on every attempt of point
 *                                    I (drives the degraded path)
 */

#ifndef SGMS_EXEC_WORKER_H
#define SGMS_EXEC_WORKER_H

#include <vector>

#include "core/experiment.h"

namespace sgms::exec
{

/** Exit status a worker uses for a deliberate test-hook crash. */
inline constexpr int kWorkerTestCrashStatus = 113;

/**
 * Serve tasks from @p task_fd, writing results to @p result_fd,
 * until EOF. Never returns; terminates the process with _exit.
 */
[[noreturn]] void
worker_loop(int task_fd, int result_fd,
            const std::vector<Experiment> &points);

} // namespace sgms::exec

#endif // SGMS_EXEC_WORKER_H
