/**
 * @file
 * Matrix Market reader tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sparse/io.hh"

namespace unistc
{
namespace
{

TEST(MatrixMarket, ReadsGeneralRealCoordinate)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "3 4 3\n"
        "1 1 2.5\n"
        "3 4 -1\n"
        "2 2 7\n");
    const CsrMatrix m = tryReadMatrixMarket(ss).value();
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.5);
    EXPECT_DOUBLE_EQ(m.at(2, 3), -1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 7.0);
}

TEST(MatrixMarket, ExpandsSymmetric)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 4\n"
        "3 3 1\n");
    const CsrMatrix m = tryReadMatrixMarket(ss).value();
    EXPECT_EQ(m.nnz(), 3); // off-diagonal mirrored, diagonal not
    EXPECT_DOUBLE_EQ(m.at(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(m.at(2, 2), 1.0);
}

TEST(MatrixMarket, ReadsPatternAsOnes)
{
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n");
    const CsrMatrix m = tryReadMatrixMarket(ss).value();
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
}

TEST(MatrixMarket, RejectsDuplicateEntries)
{
    // Regression: duplicate (r,c) pairs must be rejected, not summed
    // silently by normalize(); a corrupt writer emitting the same
    // coordinate twice would otherwise skew every downstream figure.
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 2.5\n"
        "2 2 1.0\n"
        "1 1 3.5\n");
    const Result<CsrMatrix> r = tryReadMatrixMarket(ss);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
    EXPECT_NE(r.status().message().find("duplicate"),
              std::string::npos);
}

TEST(MatrixMarket, RejectsDuplicateFromSymmetricExpansion)
{
    // A symmetric file listing both (2,1) and (1,2) duplicates after
    // mirroring even though the raw entry list has no repeats.
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 4\n"
        "1 2 5\n");
    const Result<CsrMatrix> r = tryReadMatrixMarket(ss);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
    EXPECT_NE(r.status().message().find("symmetric expansion"),
              std::string::npos);
}

TEST(MatrixMarket, FileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/unistc_io_test.mtx";
    {
        std::ofstream out(path);
        out << "%%MatrixMarket matrix coordinate real general\n"
               "2 3 2\n"
               "1 3 0.1\n"
               "2 1 -2.5e-3\n";
    }
    const CsrMatrix m = readMatrixMarketFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(m.rows(), 2);
    EXPECT_EQ(m.cols(), 3);
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_EQ(m.at(0, 2), 0.1);
    EXPECT_EQ(m.at(1, 0), -2.5e-3);
}

} // namespace
} // namespace unistc
