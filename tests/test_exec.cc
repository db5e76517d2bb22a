/**
 * @file
 * Parallel sweep engine tests: the ThreadPool contract, JobSpec
 * purity, model clones matching their originals for every
 * architecture, the executor's headline guarantee — a sweep run with
 * 1 worker and with N workers produces identical results and
 * byte-identical trace output — and its failure report: wait()
 * raises the first failed job in submission order. The concurrency
 * hammer tests at the bottom exist for the tsan preset; they pass
 * trivially single-threaded but catch races under
 * -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "corpus/generators.hh"
#include "exec/job_spec.hh"
#include "exec/sweep_executor.hh"
#include "exec/thread_pool.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "stc/registry.hh"
#include "throwing_model.hh"

using namespace unistc;

namespace
{

/** Field-by-field RunResult equality (bitwise for the doubles). */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.products, b.products);
    EXPECT_EQ(a.macSlots, b.macSlots);
    EXPECT_EQ(a.tasksT1, b.tasksT1);
    EXPECT_EQ(a.tasksT3, b.tasksT3);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.dpgActiveAccum, b.dpgActiveAccum);
    EXPECT_EQ(a.cNetScaleAccum, b.cNetScaleAccum);
    EXPECT_EQ(a.traffic.readsA, b.traffic.readsA);
    EXPECT_EQ(a.traffic.wastedA, b.traffic.wastedA);
    EXPECT_EQ(a.traffic.readsB, b.traffic.readsB);
    EXPECT_EQ(a.traffic.wastedB, b.traffic.wastedB);
    EXPECT_EQ(a.traffic.writesC, b.traffic.writesC);
    EXPECT_EQ(a.energy.fetchA, b.energy.fetchA);
    EXPECT_EQ(a.energy.fetchB, b.energy.fetchB);
    EXPECT_EQ(a.energy.writeC, b.energy.writeC);
    EXPECT_EQ(a.energy.schedule, b.energy.schedule);
    EXPECT_EQ(a.energy.compute, b.energy.compute);
}

std::shared_ptr<const BbcMatrix>
sharedBbc(const CsrMatrix &a)
{
    return std::make_shared<const BbcMatrix>(BbcMatrix::fromCsr(a));
}

std::shared_ptr<const StcModel>
sharedModel(const std::string &name,
            const MachineConfig &cfg = MachineConfig::fp64())
{
    return std::shared_ptr<const StcModel>(makeStcModel(name, cfg));
}

/** A 50%-sparse SpMSpV input vector over @p a's columns. */
std::shared_ptr<const SparseVector>
halfSparseX(const BbcMatrix &a, std::uint64_t seed)
{
    auto x = std::make_shared<SparseVector>(a.cols());
    Rng rng(seed);
    for (int i = 0; i < a.cols(); ++i) {
        if (rng.nextBool(0.5))
            x->push(i, rng.nextDouble(0.1, 1.0));
    }
    return x;
}

/** A small mixed-kernel sweep exercising every merge path. */
std::vector<JobSpec>
sampleSweep()
{
    const auto banded = sharedBbc(genBanded(192, 8, 0.5, 11));
    const auto random = sharedBbc(genRandomUniform(160, 160, 0.04, 12));

    std::vector<JobSpec> specs;
    for (const auto &model : {"Uni-STC", "DS-STC", "RM-STC"}) {
        for (const auto &a : {banded, random}) {
            for (const Kernel k :
                 {Kernel::SpMV, Kernel::SpMSpV, Kernel::SpMM,
                  Kernel::SpGEMM}) {
                JobSpec spec;
                spec.kernel = k;
                spec.models = {sharedModel(model)};
                spec.matrix = (a == banded) ? "banded" : "random";
                spec.a = a;
                if (k == Kernel::SpMSpV)
                    spec.x = halfSparseX(*a, 99);
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

} // namespace

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(pool.submitted(), 100u);
}

TEST(ThreadPool, WaitIsABarrierAndThePoolIsReusable)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 40; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 40);
    for (int i = 0; i < 17; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 57);
}

TEST(ThreadPool, InlineModeRunsOnTheCallerThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&ran_on] { ran_on = std::this_thread::get_id(); });
    // No wait(): inline mode executes during submit().
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(JobSpec, RunIsAPureFunctionOfTheSpec)
{
    JobSpec spec;
    spec.kernel = Kernel::SpGEMM;
    spec.models = {sharedModel("Uni-STC")};
    spec.matrix = "banded";
    spec.a = sharedBbc(genBanded(128, 6, 0.6, 3));
    const std::vector<RunResult> first = spec.run();
    const std::vector<RunResult> second = spec.run();
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_GT(first[0].cycles, 0u);
    expectSameResult(first[0], second[0]);
}

TEST(JobSpec, CloneMatchesItsModelForEveryArchitecture)
{
    // Every --jobs run simulates on clone()s: each registered model's
    // clone must give exactly the original's results on every kernel.
    const auto a = sharedBbc(genBanded(128, 6, 0.6, 5));
    const auto x = halfSparseX(*a, 5);
    for (const std::string &name : allModelNames()) {
        SCOPED_TRACE(name);
        const auto model = sharedModel(name);
        const auto clone =
            std::shared_ptr<const StcModel>(model->clone());
        EXPECT_EQ(clone->name(), model->name());
        for (const Kernel k : {Kernel::SpMV, Kernel::SpMSpV,
                               Kernel::SpMM, Kernel::SpGEMM}) {
            SCOPED_TRACE(toString(k));
            JobSpec spec;
            spec.kernel = k;
            spec.matrix = "banded";
            spec.a = a;
            spec.x = x;
            spec.models = {model};
            const RunResult original = spec.run().front();
            spec.models = {clone};
            const RunResult cloned = spec.run().front();
            EXPECT_GT(original.cycles, 0u);
            expectSameResult(original, cloned);
        }
    }
}

TEST(SweepExecutor, WorkerCountDoesNotChangeAnyOutput)
{
    const auto specs = sampleSweep();

    auto runWith = [&specs](int jobs) {
        SweepExecutor::Options opt;
        opt.jobs = jobs;
        opt.tracePerJob = 4096;
        auto exec = std::make_unique<SweepExecutor>(opt);
        for (const auto &spec : specs)
            exec->submit(spec);
        exec->wait();
        return exec;
    };

    const auto serial = runWith(1);
    const auto parallel = runWith(8);

    ASSERT_EQ(serial->jobCount(), specs.size());
    ASSERT_EQ(parallel->jobCount(), specs.size());
    EXPECT_EQ(serial->workerCount(), 0);
    EXPECT_EQ(parallel->workerCount(), 8);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        expectSameResult(serial->resultOf(i, 0),
                         parallel->resultOf(i, 0));
        EXPECT_GT(serial->resultOf(i, 0).cycles, 0u);
    }

    // The headline guarantee: the merged trace is byte-equal.
    ASSERT_NE(serial->trace(), nullptr);
    ASSERT_NE(parallel->trace(), nullptr);
    std::ostringstream t1, tn;
    serial->trace()->writeChromeTrace(t1);
    parallel->trace()->writeChromeTrace(tn);
    EXPECT_EQ(t1.str(), tn.str());
}

TEST(SweepExecutor, WaitRaisesTheFirstFailureInSubmissionOrder)
{
    // Jobs m1 and m3 throw. Whichever worker fails first, wait()
    // reports m1, the first failure in submission order.
    const auto a = sharedBbc(genBanded(96, 4, 0.7, 9));
    SweepExecutor::Options opt;
    opt.jobs = 2;
    SweepExecutor exec(opt);
    for (int i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.kernel = Kernel::SpMV;
        spec.matrix = "m" + std::to_string(i);
        spec.a = a;
        if (i % 2 == 1)
            spec.models = {std::make_shared<const ThrowingModel>()};
        else
            spec.models = {sharedModel("Uni-STC")};
        exec.submit(std::move(spec));
    }

    ScopedFatalThrow guard;
    try {
        exec.wait();
        FAIL() << "wait() returned";
    } catch (const UnistcError &e) {
        const std::string what = e.what();
        EXPECT_EQ(e.code(), ErrorCode::Internal);
        EXPECT_NE(what.find("SpMV Throwing-STC @ m1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("block task refused"), std::string::npos)
            << what;
    }
}

TEST(SweepExecutor, ResolveJobsReadsTheEnvironment)
{
    ::unsetenv("UNISTC_JOBS");
    EXPECT_EQ(SweepExecutor::resolveJobs(5), 5);
    EXPECT_EQ(SweepExecutor::resolveJobs(0), 1);
    EXPECT_EQ(SweepExecutor::resolveJobs(0, 3), 3);

    ::setenv("UNISTC_JOBS", "7", 1);
    EXPECT_EQ(SweepExecutor::resolveJobs(0), 7);
    EXPECT_EQ(SweepExecutor::resolveJobs(2), 2); // explicit wins

    ::setenv("UNISTC_JOBS", "auto", 1);
    EXPECT_EQ(SweepExecutor::resolveJobs(0),
              ThreadPool::hardwareThreads());

    ::setenv("UNISTC_JOBS", "bogus", 1);
    EXPECT_EQ(SweepExecutor::resolveJobs(0, 4), 4);
    ::unsetenv("UNISTC_JOBS");
}

// --- Concurrency hammers (interesting under -fsanitize=thread) ----

TEST(ObsThreadSafety, ConcurrentStatRegistryWrites)
{
    StatRegistry reg;
    ThreadPool pool(4);
    constexpr int kTasks = 64;
    constexpr int kAddsPerTask = 100;
    for (int t = 0; t < kTasks; ++t) {
        pool.submit([&reg, t] {
            for (int i = 0; i < kAddsPerTask; ++i) {
                reg.addCounter("shared.count", 1);
                reg.setScalar("task." + std::to_string(t % 8),
                              static_cast<double>(i));
            }
        });
    }
    pool.wait();
    EXPECT_EQ(reg.counter("shared.count"),
              static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(ObsThreadSafety, ConcurrentRegistryMerges)
{
    StatRegistry total;
    ThreadPool pool(4);
    for (int t = 0; t < 32; ++t) {
        pool.submit([&total] {
            StatRegistry shard;
            shard.addCounter("merged.count", 3);
            total.merge(shard);
        });
    }
    pool.wait();
    EXPECT_EQ(total.counter("merged.count"), 32u * 3u);
}

TEST(ObsThreadSafety, ConcurrentLogLevelAccess)
{
    const LogLevel saved = logLevel();
    ThreadPool pool(4);
    for (int t = 0; t < 32; ++t) {
        pool.submit([t] {
            setLogLevel(t % 2 == 0 ? LogLevel::Warn
                                   : LogLevel::Error);
            (void)logLevel();
        });
    }
    pool.wait();
    setLogLevel(saved);
}
