/**
 * @file
 * SmallVector tests: inline storage, heap spill, element lifetime
 * across growth and moves, and the std::vector subset the simulator's
 * task containers use.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "common/small_vector.hh"

namespace unistc
{
namespace
{

TEST(SmallVector, StaysInlineThenSpills)
{
    SmallVector<int, 4> v;
    EXPECT_TRUE(v.empty());
    const void *inline_data = v.data();
    for (int i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_EQ(v.data(), inline_data); // still inline at capacity
    v.push_back(4);
    EXPECT_NE(v.data(), inline_data); // spilled to heap
    ASSERT_EQ(v.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(v[i], i);
}

TEST(SmallVector, GrowPreservesNonTrivialElements)
{
    SmallVector<std::string, 2> v;
    for (int i = 0; i < 50; ++i)
        v.emplace_back("element-" + std::to_string(i));
    ASSERT_EQ(v.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(v[i], "element-" + std::to_string(i));
}

TEST(SmallVector, MoveStealsHeapAndCopiesInline)
{
    SmallVector<std::string, 2> big;
    for (int i = 0; i < 10; ++i)
        big.emplace_back(std::to_string(i));
    const void *heap = big.data();
    SmallVector<std::string, 2> stolen(std::move(big));
    EXPECT_EQ(stolen.data(), heap); // heap buffer moved, not copied
    ASSERT_EQ(stolen.size(), 10u);
    EXPECT_EQ(stolen[9], "9");

    SmallVector<std::string, 4> small;
    small.emplace_back("a");
    SmallVector<std::string, 4> moved(std::move(small));
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0], "a");
}

TEST(SmallVector, ResizeClearAndEquality)
{
    SmallVector<int, 8> a;
    a.resize(6, 3);
    EXPECT_EQ(a.size(), 6u);
    EXPECT_EQ(a[5], 3);
    a.resize(2);
    EXPECT_EQ(a.size(), 2u);
    SmallVector<int, 8> b;
    b.push_back(3);
    b.push_back(3);
    EXPECT_TRUE(a == b);
    a.clear();
    EXPECT_TRUE(a.empty());
    EXPECT_FALSE(a == b);
}

TEST(SmallVector, IterationAndAppend)
{
    SmallVector<int, 4> v;
    const int src[] = {1, 2, 3, 4, 5, 6};
    v.append(src, src + 6);
    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 21);
    EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 21);
}

} // namespace
} // namespace unistc
