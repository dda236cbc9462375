/** @file Unit tests for InlineVec, the outcome lists' storage. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/inline_vec.hh"

using namespace dsm;

namespace {

struct Item
{
    int id = -1;
    char pad[40] = {};
};

using Vec = InlineVec<Item, 4>;

void
fill(Vec &v, int n)
{
    for (int i = 0; i < n; ++i)
        v.emplace_back().id = i;
}

std::vector<int>
ids(const Vec &v)
{
    std::vector<int> out;
    for (const Item &it : v)
        out.push_back(it.id);
    return out;
}

std::vector<int>
upTo(int n)
{
    std::vector<int> out;
    for (int i = 0; i < n; ++i)
        out.push_back(i);
    return out;
}

} // namespace

// An UPD fan-out to 63 sharers spills far past the inline slots; the
// elements must keep their order across every growth.
TEST(InlineVec, KeepsOrderInlineAndPastTheSpill)
{
    for (int n : {0, 1, 4, 5, 63}) {
        Vec v;
        fill(v, n);
        EXPECT_EQ(v.size(), static_cast<std::size_t>(n));
        EXPECT_EQ(v.empty(), n == 0);
        EXPECT_EQ(ids(v), upTo(n));
    }
}

TEST(InlineVec, CopiesAndMovesInlineAndSpilledContents)
{
    for (int n : {3, 63}) {
        Vec a;
        fill(a, n);
        Vec b(a);
        EXPECT_EQ(ids(b), upTo(n));
        Vec c;
        fill(c, 9);
        c = a;
        EXPECT_EQ(ids(c), upTo(n));
        Vec d(std::move(b));
        EXPECT_EQ(ids(d), upTo(n));
        EXPECT_TRUE(b.empty());
        Vec e;
        fill(e, 7);
        e = std::move(d);
        EXPECT_EQ(ids(e), upTo(n));
        EXPECT_TRUE(d.empty());
        // A moved-from vector is usable again.
        fill(d, 6);
        EXPECT_EQ(ids(d), upTo(6));
        EXPECT_EQ(ids(a), upTo(n));
    }
}
