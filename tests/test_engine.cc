/**
 * @file
 * Engine-layer tests (ctest label "engine"): the lazy TaskStream
 * contract, the KernelPipeline's single-pass multi-model fan-out,
 * and the differential guarantee — for every kernel on every
 * registered architecture, one shared-stream pass produces results
 * byte-identical (cycles, traffic, energy, utilisation histogram
 * buckets) to the legacy one-model-at-a-time eager path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/rng.hh"
#include "corpus/generators.hh"
#include "engine/kernel_pipeline.hh"
#include "engine/plan.hh"
#include "engine/task_stream.hh"
#include "exec/job_spec.hh"
#include "exec/sweep_executor.hh"
#include "isa/uwmma.hh"
#include "runner/block_driver.hh"
#include "runner/report.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "runner/spmspv_runner.hh"
#include "runner/spmv_runner.hh"
#include "sm/sm_model.hh"
#include "stc/registry.hh"

using namespace unistc;

namespace
{

/**
 * Field-by-field RunResult equality, including every utilisation
 * histogram bucket (bitwise for the doubles).
 */
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
    ASSERT_EQ(a.utilHist.numBuckets(), b.utilHist.numBuckets());
    EXPECT_EQ(a.utilHist.totalCount(), b.utilHist.totalCount());
    for (int h = 0; h < a.utilHist.numBuckets(); ++h)
        EXPECT_EQ(a.utilHist.bucketCount(h), b.utilHist.bucketCount(h));
}

/** One smoke-corpus input: encoded matrix plus a 50%-dense vector. */
struct NamedInput
{
    std::string name;
    BbcMatrix a;
    SparseVector x;
};

NamedInput
makeInput(const std::string &name, const CsrMatrix &csr)
{
    NamedInput in{name, BbcMatrix::fromCsr(csr),
                  SparseVector(csr.cols())};
    Rng rng(7);
    for (int i = 0; i < csr.cols(); ++i) {
        if (rng.nextBool(0.5))
            in.x.push(i, 1.0);
    }
    return in;
}

/** Small but structurally diverse corpus (all square). */
const std::vector<NamedInput> &
smokeCorpus()
{
    static const std::vector<NamedInput> corpus = [] {
        std::vector<NamedInput> c;
        c.push_back(makeInput("banded", genBanded(256, 12, 0.4, 11)));
        c.push_back(
            makeInput("random", genRandomUniform(192, 192, 0.05, 12)));
        c.push_back(
            makeInput("powerlaw", genPowerLaw(256, 6.0, 2.2, 13)));
        c.push_back(makeInput("stencil", genStencil2d(14, false)));
        return c;
    }();
    return corpus;
}

/** Build the kernel's plan over one corpus input. */
KernelPlanPtr
planFor(Kernel kernel, const NamedInput &in)
{
    PlanInputs pi;
    pi.a = &in.a;
    pi.b = &in.a; // SpGEMM: C = A * A.
    pi.x = &in.x;
    pi.bCols = 64;
    return makeKernelPlan(kernel, pi);
}

/**
 * The legacy path: eagerly drain the stream through ONE model at a
 * time (the pre-engine per-runner loop, reconstructed by hand).
 */
RunResult
legacyRun(const KernelPlan &plan, const StcModel &model,
          const EnergyModel &energy = EnergyModel())
{
    RunResult res;
    const auto stream = plan.stream();
    StreamedTask item;
    while (stream->next(item))
        model.runBlock(item.task, res, nullptr);
    finalizeRun(model, energy, res);
    return res;
}

} // namespace

// Satellite acceptance test: every kernel x every registered
// architecture, the streamed single-pass multi-model results are
// byte-identical to the legacy one-model-at-a-time path, and the
// stream is enumerated exactly once for the whole lineup.
TEST(EngineDifferential, AllKernelsAllModelsSinglePassMatchesLegacy)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const auto names = allModelNames();
    std::vector<StcModelPtr> owned;
    std::vector<KernelPipeline::ModelSlot> slots;
    for (const auto &name : names) {
        owned.push_back(makeStcModel(name, cfg));
        slots.push_back({owned.back().get(), nullptr});
    }

    for (const NamedInput &in : smokeCorpus()) {
        for (const Kernel kernel : allKernels()) {
            SCOPED_TRACE(in.name + " / " + toString(kernel));
            const KernelPlanPtr plan = planFor(kernel, in);
            const std::uint64_t single_count =
                plan->stream()->materialize().size();

            PipelineCounters counters;
            const std::vector<RunResult> multi = KernelPipeline::run(
                *plan, slots, EnergyModel(), &counters);

            // One enumeration for the whole lineup: the generated
            // task count equals the single-model count even though
            // N models consumed the stream.
            EXPECT_EQ(counters.tasksGenerated, single_count);
            EXPECT_EQ(counters.modelsFanout, names.size());
            EXPECT_LE(counters.peakLiveTasks, 1u);

            ASSERT_EQ(multi.size(), names.size());
            for (std::size_t m = 0; m < names.size(); ++m) {
                SCOPED_TRACE("model " + names[m]);
                expectSameResult(multi[m],
                                 legacyRun(*plan, *owned[m]));
            }
        }
    }
}

// The runner entry points are thin planners over the pipeline; their
// results must equal a direct runOne() over the matching plan.
TEST(EngineDifferential, RunnersMatchPipelineRunOne)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const auto uni = makeStcModel("Uni-STC", cfg);
    const NamedInput &in = smokeCorpus().front();

    expectSameResult(runSpmv(*uni, in.a),
                     KernelPipeline::runOne(SpmvPlan(in.a), *uni));
    expectSameResult(
        runSpmspv(*uni, in.a, in.x),
        KernelPipeline::runOne(SpmspvPlan(in.a, in.x), *uni));
    expectSameResult(runSpmm(*uni, in.a, 64),
                     KernelPipeline::runOne(SpmmPlan(in.a, 64), *uni));
    expectSameResult(
        runSpgemm(*uni, in.a, in.a),
        KernelPipeline::runOne(SpgemmPlan(in.a, in.a), *uni));
}

// materialize() is just a drained next() loop: a second stream over
// the same plan yields the same tasks, and group ids never decrease
// (the pipeline's trace spans depend on this).
TEST(TaskStream, MaterializeMatchesPullAndGroupsAreMonotone)
{
    for (const NamedInput &in : smokeCorpus()) {
        for (const Kernel kernel : allKernels()) {
            SCOPED_TRACE(in.name + " / " + toString(kernel));
            const KernelPlanPtr plan = planFor(kernel, in);
            const std::vector<StreamedTask> eager =
                plan->stream()->materialize();

            const auto stream = plan->stream();
            StreamedTask item;
            std::size_t i = 0;
            std::int64_t prev_group = -1;
            while (stream->next(item)) {
                ASSERT_LT(i, eager.size());
                EXPECT_EQ(item.group, eager[i].group);
                EXPECT_EQ(item.task.isMv, eager[i].task.isMv);
                EXPECT_GE(item.group, prev_group);
                prev_group = item.group;
                ++i;
            }
            EXPECT_EQ(i, eager.size());
            // An exhausted stream stays exhausted.
            EXPECT_FALSE(stream->next(item));
        }
    }
}

// StcModel::runStream (the stream-consuming default) equals the
// per-task runBlock loop.
TEST(TaskStream, RunStreamDefaultMatchesBlockLoop)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const auto rm = makeStcModel("RM-STC", cfg);
    const NamedInput &in = smokeCorpus()[1];
    const KernelPlanPtr plan = planFor(Kernel::SpGEMM, in);

    RunResult streamed;
    const auto stream = plan->stream();
    rm->runStream(*stream, streamed);

    RunResult looped;
    for (const StreamedTask &st : plan->stream()->materialize())
        rm->runBlock(st.task, looped, nullptr);

    // Neither path finalizes energy; compare the raw counters.
    EXPECT_EQ(streamed.cycles, looped.cycles);
    EXPECT_EQ(streamed.products, looped.products);
    EXPECT_EQ(streamed.tasksT1, looped.tasksT1);
    EXPECT_EQ(streamed.traffic.writesC, looped.traffic.writesC);
}

// A JobSpec lineup (one job, N models) returns exactly what N
// independent single-model jobs return.
TEST(JobSpecLineup, RunMultiMatchesSingleRuns)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const NamedInput &in = smokeCorpus().front();
    const auto shared_a = std::make_shared<const BbcMatrix>(in.a);
    const std::vector<std::string> names = {"DS-STC", "RM-STC",
                                            "Uni-STC"};

    JobSpec multi;
    multi.kernel = Kernel::SpMM;
    multi.matrix = "banded";
    multi.a = shared_a;
    for (const auto &name : names) {
        multi.lineup.push_back(
            {name, cfg,
             std::shared_ptr<const StcModel>(makeStcModel(name, cfg))});
    }
    ASSERT_EQ(multi.fanout(), names.size());

    PipelineCounters counters;
    const std::vector<RunResult> rs = multi.runMulti({}, &counters);
    ASSERT_EQ(rs.size(), names.size());
    EXPECT_EQ(counters.modelsFanout, names.size());
    EXPECT_GT(counters.tasksGenerated, 0u);

    for (std::size_t m = 0; m < names.size(); ++m) {
        SCOPED_TRACE(names[m]);
        JobSpec single;
        single.kernel = Kernel::SpMM;
        single.matrix = "banded";
        single.model = names[m];
        single.config = cfg;
        single.impl = std::shared_ptr<const StcModel>(
            makeStcModel(names[m], cfg));
        single.a = shared_a;
        expectSameResult(rs[m], single.run());
    }
}

// The sweep executor carries multi-model jobs: per-slot results equal
// the same models run as separate single jobs, for any worker count,
// and the engine counters land in the merged stats.
TEST(SweepExecutorLineup, MultiModelJobMatchesSingleJobs)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const NamedInput &in = smokeCorpus()[2];
    const auto shared_a = std::make_shared<const BbcMatrix>(in.a);
    const std::vector<std::string> names = {"NV-DTC", "DS-STC",
                                            "Uni-STC"};

    for (const int workers : {1, 3}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        SweepExecutor::Options opt;
        opt.jobs = workers;
        SweepExecutor exec(opt);

        JobSpec multi;
        multi.kernel = Kernel::SpGEMM;
        multi.matrix = "powerlaw";
        multi.a = shared_a;
        multi.b = shared_a;
        for (const auto &name : names) {
            multi.lineup.push_back(
                {name, cfg,
                 std::shared_ptr<const StcModel>(
                     makeStcModel(name, cfg))});
        }
        const std::size_t mj = exec.submit(std::move(multi));

        std::vector<std::size_t> singles;
        for (const auto &name : names) {
            JobSpec s;
            s.kernel = Kernel::SpGEMM;
            s.matrix = "powerlaw";
            s.model = name;
            s.config = cfg;
            s.impl = std::shared_ptr<const StcModel>(
                makeStcModel(name, cfg));
            s.a = shared_a;
            s.b = shared_a;
            singles.push_back(exec.submit(std::move(s)));
        }
        exec.wait();

        ASSERT_EQ(exec.fanout(mj), names.size());
        for (std::size_t m = 0; m < names.size(); ++m) {
            SCOPED_TRACE(names[m]);
            expectSameResult(exec.resultOf(mj, m),
                             exec.result(singles[m]));
        }

        const PipelineCounters &pc = exec.countersOf(mj);
        EXPECT_EQ(pc.modelsFanout, names.size());
        EXPECT_EQ(pc.tasksGenerated,
                  exec.pipelineCounters().tasksGenerated);
        EXPECT_TRUE(exec.stats().has("engine.tasks_generated"));
    }
}

// SM-level integration consumes plans through the stream interface:
// simulateSmStream over a plan's stream equals simulateSm over the
// eagerly-built bundle list.
TEST(SmIntegration, SimulateSmStreamMatchesEagerBundles)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const NamedInput &in = smokeCorpus().front();
    const SmConfig sm;

    const SmStats eager = simulateSm(traceSpmv(in.a, cfg), sm);

    const auto stream = SpmvPlan(in.a).stream();
    const SmStats streamed = simulateSmStream(*stream, cfg, sm);

    EXPECT_EQ(streamed.makespanCycles, eager.makespanCycles);
    EXPECT_EQ(streamed.busyUnitCycles, eager.busyUnitCycles);
    EXPECT_EQ(streamed.tasksIssued, eager.tasksIssued);
}

// The pipeline's counters describe lazy generation: the peak number
// of tasks alive between generation and consumption stays at one no
// matter how large the matrix or lineup is.
TEST(PipelineCounters, StreamStaysLazy)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const auto uni = makeStcModel("Uni-STC", cfg);
    const auto ds = makeStcModel("DS-STC", cfg);
    std::vector<KernelPipeline::ModelSlot> slots = {
        {uni.get(), nullptr}, {ds.get(), nullptr}};

    PipelineCounters counters;
    for (const NamedInput &in : smokeCorpus()) {
        const SpgemmPlan plan(in.a, in.a);
        KernelPipeline::run(plan, slots, EnergyModel(), &counters);
    }
    EXPECT_EQ(counters.peakLiveTasks, 1u);
    EXPECT_EQ(counters.modelsFanout, 2u);
    EXPECT_GT(counters.tasksGenerated, 0u);
    // The pipeline reads no clock: the seconds fields stay 0.
    EXPECT_EQ(counters.enumerateSeconds, 0.0);
    EXPECT_EQ(counters.modelSeconds, 0.0);
}
