/**
 * @file
 * Robustness-layer tests (docs/ROBUSTNESS.md): the typed error
 * model, the structural validators against every FaultPlan data
 * corruption class, a corrupted-file corpus over the BBC binary
 * format, Matrix Market parser hardening, the executor's watchdog /
 * retry / quarantine machinery (including the jobs-determinism
 * guarantee with recovery enabled), and checkpoint/resume with its
 * durability layer (atomic replace, whole-line appends, torn-log
 * repair).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bbc/bbc_io.hh"
#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "corpus/generators.hh"
#include "exec/job_spec.hh"
#include "exec/sweep_executor.hh"
#include "obs/metrics_export.hh"
#include "robust/checkpoint.hh"
#include "robust/checksum.hh"
#include "robust/fault_inject.hh"
#include "robust/status.hh"
#include "robust/validate.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"
#include "sparse/io.hh"

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
    ASSERT_EQ(a.utilHist.numBuckets(), b.utilHist.numBuckets());
    for (int i = 0; i < a.utilHist.numBuckets(); ++i)
        EXPECT_EQ(a.utilHist.bucketCount(i), b.utilHist.bucketCount(i));
}

/** A small real matrix for corruption experiments. */
BbcMatrix
sampleBbc()
{
    return BbcMatrix::fromCsr(genBanded(128, 8, 0.5, 7));
}

/** Serialized v2 image of @p m. */
std::string
savedImage(const BbcMatrix &m)
{
    std::ostringstream os;
    EXPECT_TRUE(trySaveBbc(os, m).ok());
    return os.str();
}

/** Parse Matrix Market text, returning the Result. */
Result<CsrMatrix>
parseMtx(const std::string &text)
{
    std::istringstream is(text);
    return tryReadMatrixMarket(is, "<test>");
}

/** One job spec over a tiny matrix (deterministic). */
JobSpec
tinyJob(const std::shared_ptr<const BbcMatrix> &a,
        const std::string &matrix)
{
    JobSpec spec;
    spec.kernel = Kernel::SpMV;
    spec.model = "Uni-STC";
    spec.config = MachineConfig::fp64();
    spec.matrix = matrix;
    spec.a = a;
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Typed error model.
// ---------------------------------------------------------------------

TEST(Status, FactoriesCarryCodeAndMessage)
{
    EXPECT_TRUE(Status().ok());
    const Status s = corruptData("bit rot");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::CorruptData);
    EXPECT_EQ(s.message(), "bit rot");
    EXPECT_EQ(s.toString(), "CorruptData: bit rot");
    EXPECT_EQ(invalidArgument("x").code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(ioError("x").code(), ErrorCode::IoError);
    EXPECT_EQ(parseError("x").code(), ErrorCode::ParseError);
    EXPECT_EQ(failedPrecondition("x").code(),
              ErrorCode::FailedPrecondition);
    EXPECT_EQ(timeoutError("x").code(), ErrorCode::Timeout);
    EXPECT_EQ(internalError("x").code(), ErrorCode::Internal);
}

TEST(Status, ResultValueAndError)
{
    Result<int> good(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(good.valueOr(0), 42);

    Result<int> bad(parseError("nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::ParseError);
    EXPECT_EQ(bad.valueOr(-1), -1);

    ScopedFatalThrow guard;
    EXPECT_THROW(bad.value(), UnistcError);
}

TEST(Status, RaiseThrowsUnderScopedFatalThrow)
{
    ScopedFatalThrow guard;
    try {
        raise(timeoutError("too slow"));
        FAIL() << "raise returned";
    } catch (const UnistcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Timeout);
        EXPECT_NE(std::string(e.what()).find("too slow"),
                  std::string::npos);
    }
}

TEST(FatalBehavior, FatalThrowsInThrowModeWithLocation)
{
    ScopedFatalThrow guard;
    EXPECT_EQ(fatalBehavior(), FatalBehavior::Throw);
    try {
        UNISTC_FATAL("bad input ", 42);
        FAIL() << "UNISTC_FATAL returned";
    } catch (const UnistcError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bad input 42"), std::string::npos);
        EXPECT_NE(what.find("test_robust.cc"), std::string::npos);
    }
    // The guard restores the previous behavior on scope exit.
}

TEST(FatalBehaviorDeathTest, ExitModePrintsEvenWhenSilent)
{
    // The fatal message must never be filtered by the log level.
    EXPECT_EXIT(
        {
            setLogLevel(LogLevel::Silent);
            setFatalBehavior(FatalBehavior::Exit);
            UNISTC_FATAL("terminal condition");
        },
        ::testing::ExitedWithCode(1), "terminal condition");
}

TEST(Checksum, Fnv1aKnownVectorsAndSensitivity)
{
    // Offset basis for empty input, and any 1-bit change moves it.
    EXPECT_EQ(fnv1a64("", 0), 0xCBF29CE484222325ull);
    const std::string a = "hello";
    std::string b = a;
    b[0] ^= 1;
    EXPECT_NE(fnv1a64(a.data(), a.size()), fnv1a64(b.data(), b.size()));
}

// ---------------------------------------------------------------------
// Validators vs the FaultPlan data-corruption classes.
// ---------------------------------------------------------------------

TEST(Validate, CleanMatricesPass)
{
    const CsrMatrix csr = genBanded(64, 6, 0.6, 3);
    EXPECT_TRUE(validateCsr(csr, "banded").ok());
    const BbcMatrix bbc = BbcMatrix::fromCsr(csr);
    EXPECT_TRUE(validateBbc(bbc, "banded").ok());
    CooMatrix coo(4, 4);
    coo.add(0, 0, 1.0);
    coo.add(3, 3, -2.0);
    EXPECT_TRUE(validateCoo(coo, "coo").ok());
}

TEST(Validate, CsrRejectsNonFiniteValues)
{
    CsrMatrix m(2, 2, {0, 1, 2}, {0, 1},
                {1.0, std::numeric_limits<double>::quiet_NaN()});
    const Status s = validateCsr(m, "nan-matrix");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::CorruptData);
    EXPECT_NE(s.message().find("nan-matrix"), std::string::npos);
}

TEST(Validate, CooRejectsNonFiniteValues)
{
    CooMatrix m(2, 2);
    m.add(0, 0, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(validateCoo(m, "inf-coo").ok());
}

TEST(Validate, DetectsEveryDataFaultClass)
{
    const FaultKind kinds[] = {
        FaultKind::BitmapLv1Flip, FaultKind::BitmapLv2Flip,
        FaultKind::NanValue, FaultKind::InfValue};
    // Several seeds per class: the damage site is random, detection
    // must not be.
    for (const FaultKind kind : kinds) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            BbcMatrix m = sampleBbc();
            ASSERT_TRUE(validateBbc(m).ok());
            FaultPlan plan(seed);
            const std::string damage = plan.corruptBbc(m, kind);
            ASSERT_FALSE(damage.empty())
                << toString(kind) << " seed " << seed;
            const Status s = validateBbc(m, "faulted");
            EXPECT_FALSE(s.ok())
                << toString(kind) << " seed " << seed
                << " undetected after: " << damage;
        }
    }
}

TEST(FaultPlan, IsDeterministicPerSeed)
{
    BbcMatrix m1 = sampleBbc();
    BbcMatrix m2 = sampleBbc();
    const std::string d1 =
        FaultPlan(99).corruptBbc(m1, FaultKind::BitmapLv1Flip);
    const std::string d2 =
        FaultPlan(99).corruptBbc(m2, FaultKind::BitmapLv1Flip);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(m1.lv1(), m2.lv1());
}

// ---------------------------------------------------------------------
// BBC binary format: round trip, legacy load, corruption corpus.
// ---------------------------------------------------------------------

TEST(BbcIo, CleanRoundTrip)
{
    const BbcMatrix m = sampleBbc();
    const std::string image = savedImage(m);
    std::istringstream is(image);
    Result<BbcMatrix> r = tryLoadBbc(is, "round-trip");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const BbcMatrix &back = r.value();
    EXPECT_EQ(back.rows(), m.rows());
    EXPECT_EQ(back.cols(), m.cols());
    EXPECT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(back.rowPtr(), m.rowPtr());
    EXPECT_EQ(back.colIdx(), m.colIdx());
    EXPECT_EQ(back.lv1(), m.lv1());
    EXPECT_EQ(back.lv2(), m.lv2());
    EXPECT_EQ(back.vals(), m.vals());
    EXPECT_TRUE(validateBbc(back).ok());
}

TEST(BbcIo, LegacyV1ImagesStillLoad)
{
    // Assemble a v1 image by hand: magic "BBC-STC1", i32 shape, then
    // the same seven "u64 count + raw data" sections as v2, with no
    // length field or checksum.
    const BbcMatrix m = sampleBbc();
    std::string image;
    const std::uint64_t magic = 0x4242432D53544331ull;
    image.append(reinterpret_cast<const char *>(&magic),
                 sizeof(magic));
    const std::int32_t shape[2] = {m.rows(), m.cols()};
    image.append(reinterpret_cast<const char *>(shape),
                 sizeof(shape));
    auto append_vec = [&image](const auto &v) {
        const std::uint64_t n = v.size();
        image.append(reinterpret_cast<const char *>(&n), sizeof(n));
        image.append(reinterpret_cast<const char *>(v.data()),
                     n * sizeof(v[0]));
    };
    append_vec(m.rowPtr());
    append_vec(m.colIdx());
    append_vec(m.lv1());
    append_vec(m.lv2());
    append_vec(m.valPtrLv1());
    append_vec(m.valPtrLv2());
    append_vec(m.vals());

    std::istringstream is(image);
    Result<BbcMatrix> r = tryLoadBbc(is, "legacy");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().nnz(), m.nnz());
    EXPECT_EQ(r.value().vals(), m.vals());
}

TEST(BbcIo, BadMagicIsNotABbcFile)
{
    std::istringstream is("definitely not a bbc image....");
    const Result<BbcMatrix> r = tryLoadBbc(is, "junk");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
    EXPECT_NE(r.status().message().find("is not a BBC file"),
              std::string::npos);
}

TEST(BbcIo, CorruptionCorpusAlwaysDetectedNeverAborts)
{
    // Fault campaign: truncation and garbling at seed-chosen sites,
    // anywhere in the image. Every damaged image must produce a typed
    // error — zero aborts, zero accepted corruptions. Truncation to a
    // clean prefix is impossible to miss because the v2 header
    // declares the payload length.
    const std::string image = savedImage(sampleBbc());
    int detected = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (const FaultKind kind :
             {FaultKind::TruncateStream, FaultKind::GarbleStream}) {
            std::string bad = image;
            FaultPlan plan(seed);
            const std::string damage = plan.corruptBytes(bad, kind);
            ASSERT_FALSE(damage.empty());
            std::istringstream is(bad);
            const Result<BbcMatrix> r = tryLoadBbc(is, "corpus");
            EXPECT_FALSE(r.ok())
                << toString(kind) << " seed " << seed
                << " accepted after: " << damage;
            if (!r.ok())
                ++detected;
        }
    }
    EXPECT_EQ(detected, 80);
}

TEST(BbcIo, PayloadGarblingIsCaughtByTheChecksum)
{
    // Spare the 32-byte header so the damage lands in the payload:
    // the checksum (not the magic/version checks) must catch it.
    const std::string image = savedImage(sampleBbc());
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        std::string bad = image;
        FaultPlan plan(seed);
        const std::string damage =
            plan.corruptBytes(bad, FaultKind::GarbleStream, 32);
        ASSERT_FALSE(damage.empty());
        std::istringstream is(bad);
        const Result<BbcMatrix> r = tryLoadBbc(is, "payload");
        ASSERT_FALSE(r.ok()) << damage;
        const bool checksum_or_length =
            r.status().message().find("checksum") !=
                std::string::npos ||
            r.status().message().find("payload") != std::string::npos;
        EXPECT_TRUE(checksum_or_length)
            << "unexpected error for " << damage << ": "
            << r.status().toString();
    }
}

TEST(BbcIo, TrailingGarbageRejected)
{
    std::string image = savedImage(sampleBbc());
    image += "extra bytes after the checksum";
    std::istringstream is(image);
    const Result<BbcMatrix> r = tryLoadBbc(is, "trailing");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
}

TEST(BbcIo, MissingFileIsATypedError)
{
    const Result<BbcMatrix> r =
        tryLoadBbcFile("/nonexistent/dir/nothing.bbc");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::IoError);
}

TEST(BbcIo, ClassicWrapperThrowsUnderThrowBehavior)
{
    ScopedFatalThrow guard;
    EXPECT_THROW(loadBbcFile("/nonexistent/dir/nothing.bbc"),
                 UnistcError);
}

// ---------------------------------------------------------------------
// Matrix Market parser hardening.
// ---------------------------------------------------------------------

TEST(SparseIoHardening, OverflowDimensionsRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n99999999999 5 1\n1 1 1.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ParseError);
    EXPECT_NE(r.status().message().find("dimensions"),
              std::string::npos);
}

TEST(SparseIoHardening, NnzBeyondRowsTimesColsRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n2 2 5\n1 1 1\n1 2 1\n2 1 1\n"
                            "2 2 1\n1 1 1\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("entry count"),
              std::string::npos);
}

TEST(SparseIoHardening, DuplicateEntriesRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n3 3 2\n2 2 1.0\n2 2 4.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
    EXPECT_NE(r.status().message().find("duplicate"),
              std::string::npos);
}

TEST(SparseIoHardening, SymmetricExpansionDuplicateRejected)
{
    // (1,2) and (2,1) in a symmetric file collide after expansion.
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "symmetric\n3 3 2\n2 1 1.0\n1 2 4.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("symmetric"),
              std::string::npos);
}

TEST(SparseIoHardening, TruncatedFileRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n3 3 3\n1 1 1.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("truncated"),
              std::string::npos);
}

TEST(SparseIoHardening, NonFiniteValueRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n2 2 1\n1 1 nan\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("non-finite"),
              std::string::npos);
}

TEST(SparseIoHardening, MissingValueRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n2 2 1\n1 1\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("value"), std::string::npos);
}

TEST(SparseIoHardening, TrailingTokensOnEntryRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n2 2 1\n1 1 1.0 surprise\n");
    ASSERT_FALSE(r.ok());
}

TEST(SparseIoHardening, TrailingGarbageAfterEntriesRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n2 2 1\n1 1 1.0\n\nmore stuff\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("trailing"),
              std::string::npos);
}

TEST(SparseIoHardening, OutOfBoundsEntryRejected)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n2 2 1\n3 1 1.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("out of bounds"),
              std::string::npos);
}

TEST(SparseIoHardening, EmptyMatrixIsValid)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate real "
                            "general\n4 4 0\n");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().nnz(), 0);
    EXPECT_EQ(r.value().rows(), 4);
}

TEST(SparseIoHardening, PatternAndSymmetricStillWork)
{
    const auto r = parseMtx("%%MatrixMarket matrix coordinate "
                            "pattern symmetric\n3 3 2\n2 1\n3 3\n");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().nnz(), 3); // (2,1) mirrored + diagonal.
}

// ---------------------------------------------------------------------
// Executor recovery: retry, quarantine, strict, watchdog, determinism.
// ---------------------------------------------------------------------

TEST(ExecRecovery, TransientFaultIsRetriedAndRecovers)
{
    const auto a = std::make_shared<const BbcMatrix>(sampleBbc());

    SweepExecutor::Options opt;
    opt.jobs = 1;
    opt.maxRetries = 2;
    opt.statsPrefix = "t.";
    SweepExecutor exec(opt);

    JobSpec clean = tinyJob(a, "clean");
    const std::size_t i_clean = exec.submit(std::move(clean));

    JobSpec flaky = tinyJob(a, "flaky");
    auto fault = std::make_shared<FaultSpec>();
    fault->throwCount = 1; // first attempt throws, retry succeeds
    flaky.fault = fault;
    const std::size_t i_flaky = exec.submit(std::move(flaky));
    exec.wait();

    EXPECT_TRUE(exec.outcome(i_flaky).ok);
    EXPECT_EQ(exec.outcome(i_flaky).attempts, 2);
    EXPECT_EQ(exec.outcome(i_clean).attempts, 1);
    // The recovered job's result matches the clean job (same spec
    // modulo seed-irrelevant SpMV).
    EXPECT_GT(exec.result(i_flaky).cycles, 0u);
    EXPECT_EQ(exec.stats().counter("robust.jobs_retried"), 1u);
    EXPECT_EQ(exec.stats().counter("robust.faults_detected"), 1u);
    EXPECT_EQ(exec.stats().counter("robust.jobs_quarantined"), 0u);
}

TEST(ExecRecovery, PersistentFaultIsQuarantined)
{
    const auto a = std::make_shared<const BbcMatrix>(sampleBbc());

    SweepExecutor::Options opt;
    opt.jobs = 2;
    opt.maxRetries = 1;
    opt.quarantine = true;
    opt.statsPrefix = "t.";
    SweepExecutor exec(opt);

    JobSpec doomed = tinyJob(a, "doomed");
    auto fault = std::make_shared<FaultSpec>();
    fault->throwCount = 100; // every attempt throws
    doomed.fault = fault;
    const std::size_t i_doomed = exec.submit(std::move(doomed));
    const std::size_t i_ok = exec.submit(tinyJob(a, "survivor"));
    exec.wait();

    const auto out = exec.outcome(i_doomed);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.attempts, 2);
    EXPECT_NE(out.error.find("injected fault"), std::string::npos);
    // Quarantined result is zeroed, the rest of the sweep survives.
    EXPECT_EQ(exec.result(i_doomed).cycles, 0u);
    EXPECT_GT(exec.result(i_ok).cycles, 0u);
    EXPECT_EQ(exec.stats().counter("robust.jobs_quarantined"), 1u);
    EXPECT_EQ(exec.stats().counter("robust.faults_detected"), 2u);
}

TEST(ExecRecovery, StrictModeRaisesTheFirstFailure)
{
    const auto a = std::make_shared<const BbcMatrix>(sampleBbc());

    SweepExecutor::Options opt;
    opt.jobs = 1;
    opt.quarantine = false; // strict
    SweepExecutor exec(opt);

    JobSpec doomed = tinyJob(a, "doomed");
    auto fault = std::make_shared<FaultSpec>();
    fault->throwCount = 100;
    doomed.fault = fault;
    exec.submit(std::move(doomed));

    ScopedFatalThrow guard;
    EXPECT_THROW(exec.wait(), UnistcError);
}

TEST(ExecRecovery, WatchdogFlagsOverrunningJobs)
{
    const auto a = std::make_shared<const BbcMatrix>(sampleBbc());

    // The budget leaves the fast job room for a loaded sanitizer run,
    // where the simulator core tests share the cores.
    SweepExecutor::Options opt;
    opt.jobs = 1;
    opt.maxJobSeconds = 0.05;
    opt.quarantine = true;
    opt.statsPrefix = "t.";
    SweepExecutor exec(opt);

    JobSpec slow = tinyJob(a, "slow");
    auto fault = std::make_shared<FaultSpec>();
    fault->delayMs = 500; // well past the 50 ms budget
    slow.fault = fault;
    const std::size_t i_slow = exec.submit(std::move(slow));
    const std::size_t i_fast = exec.submit(tinyJob(a, "fast"));
    exec.wait();

    const auto out = exec.outcome(i_slow);
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.timedOut);
    EXPECT_EQ(out.attempts, 1); // timeouts are not retried
    EXPECT_NE(out.error.find("budget"), std::string::npos);
    EXPECT_EQ(exec.result(i_slow).cycles, 0u);
    EXPECT_TRUE(exec.outcome(i_fast).ok);
    EXPECT_EQ(exec.stats().counter("robust.jobs_quarantined"), 1u);
}

TEST(ExecRecovery, DeterministicAcrossWorkerCountsWithFaults)
{
    // The headline guarantee must survive recovery: a sweep with a
    // deterministic fault plan (one transient, one persistent fault)
    // merges to byte-identical stats with 1 worker and with 4.
    auto run = [](int jobs) {
        const auto a =
            std::make_shared<const BbcMatrix>(sampleBbc());
        const auto b = std::make_shared<const BbcMatrix>(
            BbcMatrix::fromCsr(genRandomUniform(96, 96, 0.06, 21)));

        SweepExecutor::Options opt;
        opt.jobs = jobs;
        opt.maxRetries = 1;
        opt.quarantine = true;
        opt.statsPrefix = "sweep.";
        SweepExecutor exec(opt);

        int n = 0;
        for (const auto &mat : {a, b}) {
            for (const Kernel k :
                 {Kernel::SpMV, Kernel::SpMSpV, Kernel::SpMM}) {
                JobSpec spec;
                spec.kernel = k;
                spec.model = "Uni-STC";
                spec.config = MachineConfig::fp64();
                spec.matrix = mat == a ? "banded" : "random";
                spec.a = mat;
                if (n == 1) { // transient: retry recovers it
                    auto f = std::make_shared<FaultSpec>();
                    f->throwCount = 1;
                    spec.fault = f;
                }
                if (n == 4) { // persistent: quarantined
                    auto f = std::make_shared<FaultSpec>();
                    f->throwCount = 100;
                    spec.fault = f;
                }
                ++n;
                exec.submit(std::move(spec));
            }
        }
        exec.wait();
        EXPECT_EQ(exec.stats().counter("robust.jobs_quarantined"),
                  1u);
        return statsJson(exec.stats());
    };

    const std::string serial = run(1);
    const std::string parallel = run(4);
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------
// Checkpoint encode/decode and resume.
// ---------------------------------------------------------------------

TEST(Checkpoint, EntryRoundTripIsBitExact)
{
    CheckpointEntry e;
    e.kernel = "SpMV";
    e.model = "Uni STC %weird%"; // spaces and escapes in names
    e.matrix = "path/with space\tand tab";
    e.result.cycles = 123456789;
    e.result.products = 42;
    e.result.traffic.readsA = 7;
    e.result.energy.fetchA = -0.0; // signed zero survives
    e.result.energy.fetchB = 5e-324; // denormal survives
    e.result.energy.compute = 1.0 / 3.0;
    e.result.utilHist = Histogram(4, 0.0, 1.0);
    e.result.utilHist.add(0.1, 3);
    e.result.utilHist.add(0.9, 5);

    const std::string line = encodeCheckpointEntry(e);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    Result<CheckpointEntry> back = decodeCheckpointEntry(line);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().kernel, e.kernel);
    EXPECT_EQ(back.value().model, e.model);
    EXPECT_EQ(back.value().matrix, e.matrix);
    expectSameResult(back.value().result, e.result);
    EXPECT_TRUE(std::signbit(back.value().result.energy.fetchA));
}

TEST(Checkpoint, RealRunResultRoundTrips)
{
    const auto a = std::make_shared<const BbcMatrix>(sampleBbc());
    JobSpec spec = tinyJob(a, "real");
    spec.seed = 1234;
    CheckpointEntry e;
    e.kernel = "SpMV";
    e.model = spec.model;
    e.matrix = spec.matrix;
    e.result = spec.run();
    Result<CheckpointEntry> back =
        decodeCheckpointEntry(encodeCheckpointEntry(e));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    expectSameResult(back.value().result, e.result);
}

TEST(Checkpoint, DecodeRejectsMalformedLines)
{
    EXPECT_FALSE(decodeCheckpointEntry("").ok());
    EXPECT_FALSE(decodeCheckpointEntry("random garbage line").ok());
    // A valid line with one counter token chopped off.
    CheckpointEntry e;
    e.kernel = "SpMV";
    e.model = "m";
    e.matrix = "x";
    std::string line = encodeCheckpointEntry(e);
    line.resize(line.rfind(' '));
    EXPECT_FALSE(decodeCheckpointEntry(line).ok());
}

TEST(Checkpoint, LoadKeepsValidPrefixOfCorruptFile)
{
    const std::string path =
        ::testing::TempDir() + "/ckpt_prefix.txt";
    {
        CheckpointWriter w;
        ASSERT_TRUE(w.open(path).ok());
        CheckpointEntry e;
        e.kernel = "SpMV";
        e.model = "m";
        e.matrix = "one";
        ASSERT_TRUE(w.append(e).ok());
        e.matrix = "two";
        ASSERT_TRUE(w.append(e).ok());
    }
    // Simulate an interrupted write: half a line at the end.
    {
        std::ofstream out(path, std::ios::app);
        out << "unistc-ckpt-v1 SpMV m thr";
    }
    Result<CheckpointLog> log = CheckpointLog::load(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().size(), 2u);
    EXPECT_TRUE(log.value().truncated());
    EXPECT_NE(log.value().find("SpMV", "m", "two"), nullptr);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsAnEmptyLog)
{
    Result<CheckpointLog> log =
        CheckpointLog::load("/nonexistent/dir/ck.txt");
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log.value().empty());
    EXPECT_FALSE(log.value().truncated());
}

TEST(Checkpoint, DuplicateKeysResolveByOccurrence)
{
    const std::string path = ::testing::TempDir() + "/ckpt_dup.txt";
    std::remove(path.c_str());
    {
        CheckpointWriter w;
        ASSERT_TRUE(w.open(path).ok());
        CheckpointEntry e;
        e.kernel = "SpMV";
        e.model = "m";
        e.matrix = "same";
        e.result.cycles = 100;
        ASSERT_TRUE(w.append(e).ok());
        e.result.cycles = 200;
        ASSERT_TRUE(w.append(e).ok());
    }
    Result<CheckpointLog> log = CheckpointLog::load(path);
    ASSERT_TRUE(log.ok());
    ASSERT_EQ(log.value().size(), 2u);
    EXPECT_EQ(log.value().find("SpMV", "m", "same", 0)->result.cycles,
              100u);
    EXPECT_EQ(log.value().find("SpMV", "m", "same", 1)->result.cycles,
              200u);
    EXPECT_EQ(log.value().find("SpMV", "m", "same", 2), nullptr);
    EXPECT_EQ(log.value().find("SpMV", "m", "other"), nullptr);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint durability: atomic replace, whole-line appends, torn-log
// repair.
// ---------------------------------------------------------------------

namespace
{

/** Scratch path under the test's temp directory. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/** Whole file as bytes. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Append raw bytes, e.g. a torn half line. */
void
appendRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bytes;
}

/** A checkpoint entry with a few distinct counters set. */
CheckpointEntry
makeEntry(const std::string &kernel, const std::string &model,
          const std::string &matrix, std::uint64_t cycles)
{
    CheckpointEntry e;
    e.kernel = kernel;
    e.model = model;
    e.matrix = matrix;
    e.result.cycles = cycles;
    e.result.products = cycles * 2;
    e.result.macSlots = cycles * 256;
    e.result.tasksT1 = 7;
    e.result.tasksT3 = 3;
    e.result.energy.compute = 1.25;
    e.result.energy.fetchA = 0.5;
    return e;
}

} // namespace

TEST(CheckpointDurability, AtomicWriteFileReplacesWholeFile)
{
    const std::string path = tempPath("atomic_write");
    ASSERT_TRUE(atomicWriteFile(path, "first\n").ok());
    EXPECT_EQ(slurp(path), "first\n");
    ASSERT_TRUE(atomicWriteFile(path, "second\n").ok());
    EXPECT_EQ(slurp(path), "second\n");
}

TEST(CheckpointDurability, DurableAppendFileWritesWholeLines)
{
    const std::string path = tempPath("durable_append");
    std::remove(path.c_str());
    DurableAppendFile file;
    ASSERT_TRUE(file.open(path).ok());
    ASSERT_TRUE(file.appendLine("alpha").ok());
    ASSERT_TRUE(file.appendLine("beta").ok());
    file.close();
    EXPECT_FALSE(file.isOpen());
    EXPECT_EQ(slurp(path), "alpha\nbeta\n");
}

TEST(CheckpointDurability, RewriteCheckpointAtomicRepairsTornLog)
{
    const std::string path = tempPath("ckpt_torn");
    std::remove(path.c_str());
    CheckpointEntry a = makeEntry("Spmm", "uni", "m0", 10);
    CheckpointEntry b = makeEntry("Spmm", "uni", "m1", 20);
    appendRaw(path, encodeCheckpointEntry(a) + "\n");
    appendRaw(path, encodeCheckpointEntry(b) + "\n");
    std::string torn =
        encodeCheckpointEntry(makeEntry("Spmm", "uni", "m2", 30));
    appendRaw(path, torn.substr(0, torn.size() / 2));

    auto log = CheckpointLog::load(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().size(), 2u);
    EXPECT_TRUE(log.value().truncated());

    ASSERT_TRUE(rewriteCheckpointAtomic(path, log.value().entries()).ok());
    auto repaired = CheckpointLog::load(path);
    ASSERT_TRUE(repaired.ok());
    EXPECT_EQ(repaired.value().size(), 2u);
    EXPECT_FALSE(repaired.value().truncated());
    ASSERT_NE(repaired.value().find("Spmm", "uni", "m1"), nullptr);
    EXPECT_EQ(repaired.value().find("Spmm", "uni", "m1")->result.cycles,
              20u);
}
