#include "exec/worker.h"

#include <cstdlib>

#include <malloc.h>
#include <unistd.h>

#include "exec/ipc.h"
#include "exec/result_cache.h"
#include "exec/result_codec.h"

namespace sgms::exec
{

namespace
{

/** -1 when @p name is unset; else its integer value. */
int64_t
env_index(const char *name)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return -1;
    return std::strtoll(v, nullptr, 10);
}

} // namespace

void
worker_loop(int task_fd, int result_fd,
            const std::vector<Experiment> &points)
{
    const int64_t crash_once =
        env_index("SGMS_TEST_WORKER_CRASH_INDEX");
    const int64_t crash_always =
        env_index("SGMS_TEST_WORKER_CRASH_ALWAYS");

    for (;;) {
        // Give back the heap the last point's result freed before the
        // next point runs: ru_maxrss charges a worker its peak, and
        // without the trim a worker that runs several points peaked
        // above one that runs its largest point alone.
        ::malloc_trim(0);
        IpcFrame task;
        IpcRead st = read_frame(task_fd, task);
        if (st == IpcRead::Eof)
            ::_exit(0); // supervisor closed the pipe: clean shutdown
        if (st != IpcRead::Ok || task.type != FrameType::Task)
            ::_exit(1);

        IpcFrame reply;
        reply.index = task.index;
        reply.arg = task.arg;
        if (task.index >= points.size() ||
            task.payload !=
                experiment_fingerprint(points[task.index])) {
            // Parent and worker disagree about what this point is;
            // refuse rather than return a result for the wrong key.
            reply.type = FrameType::Error;
            if (!write_frame(result_fd, reply))
                ::_exit(1);
            continue;
        }

        if ((crash_once == static_cast<int64_t>(task.index) &&
             task.arg == 0) ||
            crash_always == static_cast<int64_t>(task.index)) {
            ::_exit(kWorkerTestCrashStatus);
        }

        SimResult r = points[task.index].run();
        reply.type = FrameType::Result;
        reply.payload = result_blob(r);
        if (!write_frame(result_fd, reply))
            ::_exit(1); // parent died; nothing left to serve
    }
}

} // namespace sgms::exec
