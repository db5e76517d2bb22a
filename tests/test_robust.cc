/**
 * @file
 * Robustness-layer tests (docs/ROBUSTNESS.md): the typed error
 * model, the structural validators against every FaultPlan data
 * corruption class, a corrupted-file corpus over the BBC binary
 * format, and Matrix Market parser hardening.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bbc/bbc_io.hh"
#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "corpus/generators.hh"
#include "robust/checksum.hh"
#include "robust/status.hh"
#include "robust/validate.hh"
#include "sparse/csr.hh"
#include "sparse/io.hh"

#include "fault_inject.hh"

using namespace unistc;

namespace
{

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
    EXPECT_EQ(internalError("x").code(), ErrorCode::Internal);
}

TEST(Status, ResultValueAndError)
{
    Result<int> good(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);

    Result<int> bad(parseError("nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::ParseError);

    ScopedFatalThrow guard;
    EXPECT_THROW(bad.value(), UnistcError);
}

TEST(Status, RaiseThrowsUnderScopedFatalThrow)
{
    ScopedFatalThrow guard;
    try {
        raise(ioError("disk gone"));
        FAIL() << "raise returned";
    } catch (const UnistcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::IoError);
        EXPECT_NE(std::string(e.what()).find("disk gone"),
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
