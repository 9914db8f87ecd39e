/**
 * @file
 * Tests for the multi-process execution mode (src/exec/ipc.h,
 * worker.h, supervisor.h, and the engine's workers path): pipe
 * framing, byte-identity with the serial path, crash recovery, the
 * per-point watchdog, and degraded-result determinism.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/json_report.h"
#include "core/sweep.h"
#include "exec/ipc.h"
#include "exec/parallel_runner.h"
#include "exec/result_codec.h"
#include "exec/worker.h"

namespace sgms
{
namespace
{

using exec::Engine;
using exec::ExecOptions;
using exec::FrameType;
using exec::IpcFrame;
using exec::IpcRead;

/** Sets an environment variable for one scope, then unsets it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value)
        : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** A pipe whose ends close automatically. */
struct Pipe
{
    int rd = -1;
    int wr = -1;
    Pipe()
    {
        int fds[2];
        EXPECT_EQ(::pipe(fds), 0);
        rd = fds[0];
        wr = fds[1];
    }
    ~Pipe()
    {
        if (rd >= 0)
            ::close(rd);
        if (wr >= 0)
            ::close(wr);
    }
    void
    close_wr()
    {
        ::close(wr);
        wr = -1;
    }
};

std::string
blobs_of(const std::vector<SimResult> &results)
{
    std::string out;
    for (const auto &r : results)
        out += exec::result_blob(r);
    return out;
}

std::string
report_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    write_results_json(os, results, /*include_faults=*/true);
    return os.str();
}

/** Same grid exec_test.cc uses for engine determinism. */
SweepSpec
workers_spec()
{
    SweepSpec spec;
    spec.apps = {"gdb"};
    spec.policies = {"fullpage", "eager", "pipelining"};
    spec.subpage_sizes = {1024, 2048};
    spec.mems = {MemConfig::Half};
    spec.scale = 0.3;
    return spec;
}

double
metric_value(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

// ----------------------------------------------------------------- ipc

TEST(Ipc, FramesRoundTripOverARealPipe)
{
    Pipe p;
    IpcFrame task;
    task.type = FrameType::Task;
    task.index = 42;
    task.arg = 7;
    task.payload = "fingerprint\nwith=lines\n";
    ASSERT_TRUE(exec::write_frame(p.wr, task));

    IpcFrame result;
    result.type = FrameType::Result;
    result.index = 43;
    result.arg = 0;
    result.payload = std::string("binary\0bytes", 12);
    ASSERT_TRUE(exec::write_frame(p.wr, result));

    IpcFrame error;
    error.type = FrameType::Error;
    error.index = 44;
    error.arg = 1;
    ASSERT_TRUE(exec::write_frame(p.wr, error)); // empty payload

    IpcFrame out;
    ASSERT_EQ(exec::read_frame(p.rd, out), IpcRead::Ok);
    EXPECT_EQ(out.type, FrameType::Task);
    EXPECT_EQ(out.index, 42u);
    EXPECT_EQ(out.arg, 7u);
    EXPECT_EQ(out.payload, task.payload);

    ASSERT_EQ(exec::read_frame(p.rd, out), IpcRead::Ok);
    EXPECT_EQ(out.type, FrameType::Result);
    EXPECT_EQ(out.payload, result.payload);

    ASSERT_EQ(exec::read_frame(p.rd, out), IpcRead::Ok);
    EXPECT_EQ(out.type, FrameType::Error);
    EXPECT_TRUE(out.payload.empty());

    // Writer closed with nothing in flight: clean EOF, not an error.
    p.close_wr();
    EXPECT_EQ(exec::read_frame(p.rd, out), IpcRead::Eof);
}

TEST(Ipc, TornFrameIsAnErrorNotEof)
{
    // One complete frame, then a prefix of a second (valid magic,
    // cut off mid-header), then the writer dies. The reader must
    // distinguish "mid-frame EOF" from the clean EOF above.
    Pipe p;
    IpcFrame ok;
    ok.type = FrameType::Task;
    ok.payload = "abc";
    ASSERT_TRUE(exec::write_frame(p.wr, ok));
    unsigned char half[12] = {0x46, 0x4d, 0x47, 0x53, 1, 0, 0, 0,
                              9, 9, 9, 9}; // "SGMF" LE + type=Task
    ASSERT_EQ(::write(p.wr, half, sizeof(half)),
              static_cast<ssize_t>(sizeof(half)));
    p.close_wr();
    IpcFrame out;
    ASSERT_EQ(exec::read_frame(p.rd, out), IpcRead::Ok);
    EXPECT_EQ(out.payload, "abc");
    EXPECT_EQ(exec::read_frame(p.rd, out), IpcRead::Error);
}

TEST(Ipc, RejectsGarbageMagicAndOversizePayload)
{
    Pipe p;
    // 32 bytes of garbage: wrong magic.
    std::string junk(32, 'Z');
    ASSERT_EQ(::write(p.wr, junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    IpcFrame out;
    EXPECT_EQ(exec::read_frame(p.rd, out), IpcRead::Error);

    // Correct magic + type but an absurd payload length: rejected
    // before any attempt to allocate it.
    Pipe p2;
    unsigned char hdr[32] = {};
    hdr[0] = 0x46; // "SGMF" little-endian: 0x53474d46
    hdr[1] = 0x4d;
    hdr[2] = 0x47;
    hdr[3] = 0x53;
    hdr[4] = 2; // FrameType::Result
    for (int i = 24; i < 32; ++i)
        hdr[i] = 0xff; // payload_len = 2^64-1
    ASSERT_EQ(::write(p2.wr, hdr, sizeof(hdr)),
              static_cast<ssize_t>(sizeof(hdr)));
    EXPECT_EQ(exec::read_frame(p2.rd, out), IpcRead::Error);
}

// -------------------------------------------------------------- engine

TEST(Workers, ResultsAreByteIdenticalToSerialAtAnyFleetSize)
{
    SweepSpec spec = workers_spec();

    ExecOptions serial_eo;
    serial_eo.jobs = 1;
    Engine serial(serial_eo);
    std::vector<SimResult> s = serial.run_sweep(spec);

    for (unsigned workers : {1u, 2u, 8u}) {
        ExecOptions eo;
        eo.workers = workers; // more workers than points is fine
        Engine engine(eo);
        std::vector<SimResult> w = engine.run_sweep(spec);
        ASSERT_EQ(w.size(), s.size());
        EXPECT_EQ(blobs_of(w), blobs_of(s)) << workers << " workers";
        EXPECT_EQ(report_of(w), report_of(s));

        exec::ExecStats es = engine.stats();
        EXPECT_EQ(es.points_run, s.size());
        EXPECT_EQ(es.points_degraded, 0u);
        EXPECT_EQ(es.worker_crashes, 0u);
        EXPECT_EQ(es.timeouts, 0u);
        EXPECT_EQ(es.proc_workers, workers);
    }
}

TEST(Workers, ProgressFiresOncePerPointOnCallingThread)
{
    std::vector<Experiment> points =
        exec::expand_sweep(workers_spec());
    ExecOptions eo;
    eo.workers = 3;
    Engine engine(eo);
    std::vector<std::string> seen;
    std::thread::id caller = std::this_thread::get_id();
    bool all_on_caller = true;
    engine.run_all(points, [&](const Experiment &ex) {
        seen.push_back(ex.label());
        all_on_caller &= std::this_thread::get_id() == caller;
    });
    // Exactly once per point, on the parent thread (dispatch order
    // may differ from serial order; the multiset of labels may not,
    // and this grid's labels are unique).
    ASSERT_EQ(seen.size(), points.size());
    EXPECT_TRUE(all_on_caller);
    std::multiset<std::string> got(seen.begin(), seen.end());
    std::multiset<std::string> want;
    for (const Experiment &ex : points)
        want.insert(ex.label());
    EXPECT_EQ(got, want);
}

TEST(Workers, RecoversFromAWorkerKilledMidPoint)
{
    SweepSpec spec = workers_spec();
    ExecOptions serial_eo;
    serial_eo.jobs = 1;
    Engine serial(serial_eo);
    std::vector<SimResult> s = serial.run_sweep(spec);

    // The worker owning point 1 _exits before replying, first
    // attempt only; the supervisor must reap it, respawn, retry,
    // and still produce byte-identical output.
    ScopedEnv crash("SGMS_TEST_WORKER_CRASH_INDEX", "1");
    ExecOptions eo;
    eo.workers = 2;
    Engine engine(eo);
    std::vector<SimResult> w = engine.run_sweep(spec);

    EXPECT_EQ(blobs_of(w), blobs_of(s));
    exec::ExecStats es = engine.stats();
    EXPECT_EQ(es.points_degraded, 0u);
    EXPECT_GE(es.worker_crashes, 1u);
    EXPECT_GE(es.worker_respawns, 1u);
}

TEST(Workers, PointCrashingOnEveryAttemptDegradesDeterministically)
{
    SweepSpec spec = workers_spec();
    ScopedEnv crash("SGMS_TEST_WORKER_CRASH_ALWAYS", "2");

    auto run_once = [&spec]() {
        ExecOptions eo;
        eo.workers = 2;
        Engine engine(eo);
        std::vector<SimResult> w = engine.run_sweep(spec);
        exec::ExecStats es = engine.stats();
        EXPECT_EQ(es.points_degraded, 1u);
        EXPECT_GE(es.worker_crashes, 2u); // both attempts died
        return w;
    };
    std::vector<SimResult> first = run_once();

    // The degraded slot is point 2 — identity filled, marked, every
    // measurement zero — and the other points are untouched.
    std::vector<Experiment> points = exec::expand_sweep(spec);
    ASSERT_EQ(first.size(), points.size());
    const SimResult &deg = first[2];
    EXPECT_EQ(deg.app, points[2].app);
    EXPECT_EQ(deg.policy, points[2].policy);
    EXPECT_EQ(deg.subpage_size, points[2].subpage_size);
    EXPECT_EQ(deg.runtime, 0);
    EXPECT_EQ(metric_value(deg, "exec.degraded"), 1.0);
    EXPECT_EQ(metric_value(first[0], "exec.degraded"), 0.0);
    EXPECT_GT(first[0].runtime, 0);

    // Degradation is deterministic: a second run is byte-identical.
    std::vector<SimResult> second = run_once();
    EXPECT_EQ(blobs_of(second), blobs_of(first));
}

TEST(Workers, WatchdogKillsOverBudgetPointsDeterministically)
{
    SweepSpec spec = workers_spec();
    // Every point stalls far past the budget: the watchdog must kill
    // every worker, degrade every point, and terminate promptly.
    ScopedEnv stall("SGMS_TEST_WORKER_STALL_MS", "30000");

    auto run_once = [&spec]() {
        ExecOptions eo;
        eo.workers = 2;
        eo.point_timeout_ms = 200;
        Engine engine(eo);
        std::vector<SimResult> w = engine.run_sweep(spec);
        exec::ExecStats es = engine.stats();
        EXPECT_EQ(es.points_degraded, w.size());
        EXPECT_EQ(es.timeouts, w.size()); // one kill per point
        return w;
    };
    std::vector<SimResult> first = run_once();
    for (const SimResult &r : first) {
        EXPECT_EQ(r.runtime, 0);
        EXPECT_EQ(metric_value(r, "exec.degraded"), 1.0);
    }
    // Timed-out points yield the same bytes on every run.
    std::vector<SimResult> second = run_once();
    EXPECT_EQ(blobs_of(second), blobs_of(first));
}

TEST(Workers, WatchdogSparesPointsWithinBudget)
{
    SweepSpec spec = workers_spec();
    ExecOptions serial_eo;
    serial_eo.jobs = 1;
    Engine serial(serial_eo);
    std::vector<SimResult> s = serial.run_sweep(spec);

    // Generous budget: nothing should be killed.
    ExecOptions eo;
    eo.workers = 2;
    eo.point_timeout_ms = 120000;
    Engine engine(eo);
    std::vector<SimResult> w = engine.run_sweep(spec);
    EXPECT_EQ(blobs_of(w), blobs_of(s));
    EXPECT_EQ(engine.stats().timeouts, 0u);
}

TEST(Workers, SharesTheResultCacheWithTheParent)
{
    std::string dir = ::testing::TempDir() + "sgms_workers_cache";
    std::filesystem::remove_all(dir);
    SweepSpec spec = workers_spec();

    ExecOptions eo;
    eo.workers = 2;
    eo.cache_enabled = true;
    eo.cache_dir = dir;
    Engine cold(eo);
    std::vector<SimResult> first = cold.run_sweep(spec);
    exec::ExecStats cs = cold.stats();
    EXPECT_EQ(cs.points_run, first.size());
    EXPECT_EQ(cs.cache.stores, first.size());

    // A second engine — workers mode again — consults the cache in
    // the parent and dispatches nothing.
    Engine warm(eo);
    std::vector<SimResult> second = warm.run_sweep(spec);
    EXPECT_EQ(blobs_of(second), blobs_of(first));
    exec::ExecStats ws = warm.stats();
    EXPECT_EQ(ws.points_cached, first.size());
    EXPECT_EQ(ws.points_run, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sgms
