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
#include "common/bitops.hh"
#include "common/rng.hh"
#include "corpus/generators.hh"
#include "engine/kernel_pipeline.hh"
#include "engine/plan.hh"
#include "engine/task_stream.hh"
#include "isa/uwmma.hh"
#include "obs/trace.hh"
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

/** Every task a fresh stream over @p plan yields, in order. */
std::vector<StreamedTask>
drain(const KernelPlan &plan)
{
    std::vector<StreamedTask> tasks;
    const auto stream = plan.stream();
    StreamedTask t;
    while (stream->next(t))
        tasks.push_back(t);
    return tasks;
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
planFor(Kernel kernel, const NamedInput &in, int b_cols = 64)
{
    PlanInputs pi;
    pi.a = &in.a;
    pi.b = &in.a; // SpGEMM: C = A * A.
    pi.x = &in.x;
    pi.bCols = b_cols;
    return makeKernelPlan(kernel, pi);
}

/**
 * SpMM widths around the 16-column B block: none, one and four
 * full-width columns, each with and without a partial last column.
 */
const std::vector<int> kSpmmWidths = {1, 15, 16, 17, 64, 70};

/** The seven registry models plus the NV-STC-2:4 extension. */
std::vector<std::string>
everyModelName()
{
    std::vector<std::string> names = allModelNames();
    names.push_back("NV-STC-2:4");
    return names;
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

// Every kernel x every model, at FP64 and FP32, and SpMM at widths
// with and without repeated B block columns: the streamed
// single-pass multi-model results are byte-identical to the legacy
// one-model-at-a-time path, which simulates every task, repeats
// included. The stream is enumerated exactly once for the whole
// lineup.
TEST(EngineDifferential, AllKernelsAllModelsSinglePassMatchesLegacy)
{
    const auto names = everyModelName();
    for (const MachineConfig &cfg :
         {MachineConfig::fp64(), MachineConfig::fp32()}) {
        std::vector<StcModelPtr> owned;
        std::vector<KernelPipeline::ModelSlot> slots;
        for (const auto &name : names) {
            owned.push_back(makeStcModel(name, cfg));
            slots.push_back({owned.back().get(), nullptr});
        }

        for (const NamedInput &in : smokeCorpus()) {
            for (const Kernel kernel : allKernels()) {
                for (const int b_cols :
                     kernel == Kernel::SpMM ? kSpmmWidths
                                            : std::vector<int>{64}) {
                    SCOPED_TRACE(in.name + " / " + toString(kernel) +
                                 " / bCols " + std::to_string(b_cols) +
                                 " / " + toString(cfg.precision));
                    const KernelPlanPtr plan =
                        planFor(kernel, in, b_cols);
                    const std::uint64_t single_count =
                        drain(*plan).size();

                    PipelineCounters counters;
                    const std::vector<RunResult> multi =
                        KernelPipeline::run(*plan, slots, EnergyModel(),
                                            &counters);

                    // One enumeration for the whole lineup: the
                    // generated task count equals the single-model
                    // count even though N models consumed the stream.
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
    }
}

// A traced slot simulates every repeat of a marked SpMM task and an
// untraced slot adds the marked task's counters again: one pass that
// runs both for every model gives each pair equal results. The traced
// slot's sink holds the events of a per-task traced loop, plus the
// runner track's kernel span and one span per A block.
TEST(EngineDifferential, TracedAndUntracedSlotsAgree)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const auto names = everyModelName();
    std::vector<StcModelPtr> owned;
    for (const auto &name : names)
        owned.push_back(makeStcModel(name, cfg));
    for (const NamedInput &in : smokeCorpus()) {
        SCOPED_TRACE(in.name);
        const SpmmPlan plan(in.a, 70);
        std::vector<std::unique_ptr<TraceSink>> sinks;
        std::vector<KernelPipeline::ModelSlot> slots;
        for (const StcModelPtr &model : owned) {
            sinks.push_back(std::make_unique<TraceSink>(64));
            slots.push_back({model.get(), sinks.back().get()});
            slots.push_back({model.get(), nullptr});
        }
        const std::vector<RunResult> rs = KernelPipeline::run(plan, slots);
        ASSERT_EQ(rs.size(), 2 * names.size());
        for (std::size_t m = 0; m < names.size(); ++m) {
            SCOPED_TRACE("model " + names[m]);
            expectSameResult(rs[2 * m], rs[2 * m + 1]);

            TraceSink loop(64);
            RunResult unused;
            for (const StreamedTask &st : drain(plan))
                owned[m]->runBlock(st.task, unused, &loop);
            EXPECT_EQ(sinks[m]->recorded(),
                      loop.recorded() + 1 +
                          static_cast<std::uint64_t>(in.a.numBlocks()));
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

// A second stream over the same plan yields the tasks of a drained
// first one, and group ids never decrease (the pipeline's trace spans
// depend on this).
TEST(TaskStream, MaterializeMatchesPullAndGroupsAreMonotone)
{
    for (const NamedInput &in : smokeCorpus()) {
        for (const Kernel kernel : allKernels()) {
            SCOPED_TRACE(in.name + " / " + toString(kernel));
            const KernelPlanPtr plan = planFor(kernel, in);
            const std::vector<StreamedTask> eager = drain(*plan);

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

// A stream borrows only the plan's operands, so it may outlive the
// plan: an SpMSpV stream opened from a temporary plan still sees the
// x-segment masks and yields the tasks of a named plan's stream.
TEST(TaskStream, SpmspvStreamOutlivesItsPlan)
{
    for (const NamedInput &in : smokeCorpus()) {
        SCOPED_TRACE(in.name);
        const KernelPlanPtr plan = planFor(Kernel::SpMSpV, in);
        const std::vector<StreamedTask> want = drain(*plan);
        const auto stream = planFor(Kernel::SpMSpV, in)->stream();
        StreamedTask item;
        std::size_t n = 0;
        while (stream->next(item)) {
            ASSERT_LT(n, want.size());
            EXPECT_EQ(item.group, want[n].group);
            EXPECT_EQ(item.task.b, want[n].task.b);
            ++n;
        }
        EXPECT_EQ(n, want.size());
    }
}

// SpMM marks the first full-width B block column of each A block
// with the number of full-width columns after it, and nothing else:
// each mark is followed by exactly that many items of the same task
// in the same A block, never the partial last column or the next A
// block's first task.
TEST(TaskStream, SpmmMarksTheFullWidthRepeatsOfEachABlock)
{
    for (const NamedInput &in : smokeCorpus()) {
        for (const int b_cols : kSpmmWidths) {
            SCOPED_TRACE(in.name + " / bCols " + std::to_string(b_cols));
            const std::vector<StreamedTask> items =
                drain(SpmmPlan(in.a, b_cols));
            const auto per_block =
                static_cast<std::size_t>(ceilDiv(b_cols, kBlockSize));
            const auto full =
                static_cast<std::uint32_t>(b_cols / kBlockSize);
            ASSERT_EQ(items.size(),
                      static_cast<std::size_t>(in.a.numBlocks()) *
                          per_block);
            for (std::size_t i = 0; i < items.size(); ++i) {
                const StreamedTask &it = items[i];
                EXPECT_EQ(it.repeats,
                          i % per_block == 0 && full > 1 ? full - 1 : 0u);
                for (std::size_t r = 1; r <= it.repeats; ++r) {
                    ASSERT_LT(i + r, items.size());
                    EXPECT_EQ(items[i + r].group, it.group);
                    EXPECT_EQ(items[i + r].task.a, it.task.a);
                    EXPECT_EQ(items[i + r].task.b, it.task.b);
                    EXPECT_EQ(items[i + r].task.isMv, it.task.isMv);
                }
                const std::size_t after = i + it.repeats + 1;
                if (it.repeats > 0 && after < items.size()) {
                    EXPECT_TRUE(items[after].group != it.group ||
                                items[after].task.b != it.task.b);
                }
            }
        }
    }
}

namespace
{

/** Field-by-field PatternMeta equality. */
void
expectSameMeta(const PatternMeta &a, const PatternMeta &b)
{
    EXPECT_EQ(a.tiles, b.tiles);
    EXPECT_EQ(a.tileBits, b.tileBits);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.colCnt, b.colCnt);
    EXPECT_EQ(a.rowCnt, b.rowCnt);
    EXPECT_EQ(a.nnz, b.nnz);
}

/**
 * Algorithm 2 by brute force: every (A block, B block) pair in C
 * block-row order whose blockProductCount is positive.
 */
std::vector<StreamedTask>
bruteForceSpgemm(const BbcMatrix &a, const BbcMatrix &b)
{
    std::vector<StreamedTask> tasks;
    for (int bi = 0; bi < a.blockRows(); ++bi) {
        for (std::int64_t ai = a.rowPtr()[bi]; ai < a.rowPtr()[bi + 1];
             ++ai) {
            const int bk = a.colIdx()[ai];
            for (std::int64_t bj = b.rowPtr()[bk];
                 bj < b.rowPtr()[bk + 1]; ++bj) {
                const BlockPattern pa = a.blockPattern(ai);
                const BlockPattern pb = b.blockPattern(bj);
                if (blockProductCount(pa, pb) > 0)
                    tasks.push_back({BlockTask::mm(pa, pb), bi});
            }
        }
    }
    return tasks;
}

/** @p got equals @p want task for task, summaries included. */
void
expectSameTasks(const std::vector<StreamedTask> &got,
                const std::vector<StreamedTask> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("task " + std::to_string(i));
        EXPECT_EQ(got[i].group, want[i].group);
        EXPECT_EQ(got[i].repeats, 0u);
        EXPECT_EQ(got[i].task.a, want[i].task.a);
        EXPECT_EQ(got[i].task.b, want[i].task.b);
        EXPECT_FALSE(got[i].task.isMv);
        expectSameMeta(got[i].task.aInfo(),
                       computePatternMeta(want[i].task.a));
        expectSameMeta(got[i].task.bInfo(),
                       computePatternMeta(want[i].task.b));
    }
}

} // namespace

// SpGEMM builds one set of block summaries for C = A·A and tests each
// candidate pair with one AND of the A block's nonzero-column mask
// and the B block's nonzero-row mask. The stream over (A, A), over
// (A, a copy of A) and over (A, another B) each equal a brute-force
// walk that keeps the pairs with a positive product count.
TEST(TaskStream, SpgemmKeepsExactlyThePairsWithProducts)
{
    for (const NamedInput &in : smokeCorpus()) {
        SCOPED_TRACE(in.name);
        const std::vector<StreamedTask> want = bruteForceSpgemm(in.a, in.a);
        const std::vector<StreamedTask> self =
            drain(SpgemmPlan(in.a, in.a));
        expectSameTasks(self, want);
        const BbcMatrix copy = in.a;
        expectSameTasks(drain(SpgemmPlan(in.a, copy)), want);

        const BbcMatrix b = BbcMatrix::fromCsr(
            genRandomUniform(in.a.cols(), 70, 0.04, 21));
        expectSameTasks(drain(SpgemmPlan(in.a, b)),
                        bruteForceSpgemm(in.a, b));
    }
}

namespace
{

// A lineup pass over `kernel` returns exactly what its one-model
// passes return, and enumerates the stream once: its task count
// equals each one-model pass's.
void
expectLineupMatchesOneModelPasses(Kernel kernel, const NamedInput &in)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const std::vector<std::string> names = {"NV-DTC", "DS-STC",
                                            "RM-STC", "Uni-STC"};
    std::vector<StcModelPtr> owned;
    std::vector<KernelPipeline::ModelSlot> slots;
    for (const auto &name : names) {
        owned.push_back(makeStcModel(name, cfg));
        slots.push_back({owned.back().get(), nullptr});
    }
    const KernelPlanPtr plan = planFor(kernel, in);
    PipelineCounters counters;
    const std::vector<RunResult> rs =
        KernelPipeline::run(*plan, slots, EnergyModel(), &counters);
    ASSERT_EQ(rs.size(), names.size());
    EXPECT_EQ(counters.modelsFanout, names.size());
    EXPECT_GT(counters.tasksGenerated, 0u);
    for (std::size_t m = 0; m < names.size(); ++m) {
        SCOPED_TRACE(names[m]);
        PipelineCounters one;
        expectSameResult(rs[m],
                         KernelPipeline::runOne(*plan, *owned[m],
                                                EnergyModel(), nullptr,
                                                &one));
        EXPECT_EQ(one.modelsFanout, 1u);
        EXPECT_EQ(one.tasksGenerated, counters.tasksGenerated);
    }
}

} // namespace

TEST(KernelPipelineLineup, MatchesItsOneModelPassesOnSpmm)
{
    expectLineupMatchesOneModelPasses(Kernel::SpMM, smokeCorpus()[0]);
}

TEST(KernelPipelineLineup, MatchesItsOneModelPassesOnSpgemm)
{
    expectLineupMatchesOneModelPasses(Kernel::SpGEMM, smokeCorpus()[2]);
}

// A model's clone() gives exactly the original's results on every
// kernel, for every model in src/.
TEST(StcModelClone, MatchesItsModelForEveryArchitecture)
{
    const NamedInput &in = smokeCorpus().front();
    for (const std::string &name : everyModelName()) {
        SCOPED_TRACE(name);
        const StcModelPtr model =
            makeStcModel(name, MachineConfig::fp64());
        const std::unique_ptr<StcModel> clone = model->clone();
        EXPECT_EQ(clone->name(), model->name());
        for (const Kernel k : allKernels()) {
            SCOPED_TRACE(toString(k));
            const KernelPlanPtr plan = planFor(k, in);
            const RunResult original =
                KernelPipeline::runOne(*plan, *model);
            EXPECT_GT(original.cycles, 0u);
            expectSameResult(original,
                             KernelPipeline::runOne(*plan, *clone));
        }
    }
}

// SM-level integration consumes plans through the stream interface:
// the bundles built from a plan's stream schedule exactly like the
// eagerly-built bundle list.
TEST(SmIntegration, SimulateSmStreamMatchesEagerBundles)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const NamedInput &in = smokeCorpus().front();
    const SmConfig sm;

    const SmStats eager = simulateSm(traceSpmv(in.a, cfg), sm);

    const auto stream = SpmvPlan(in.a).stream();
    const SmStats streamed = simulateSm(bundleStream(*stream, cfg), sm);

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
