#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "support/zeroed_pages.h"

namespace bitspec
{
namespace
{

constexpr size_t kBytes = 1 << 22;

/** Pages of @p buf the kernel holds resident right now. */
size_t
residentPages(ZeroedPages &buf)
{
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec((buf.size() + page - 1) / page);
    EXPECT_EQ(mincore(buf.data(), buf.size(), vec.data()), 0);
    return static_cast<size_t>(
        std::count_if(vec.begin(), vec.end(),
                      [](unsigned char v) { return v & 1; }));
}

TEST(ZeroedPages, FreshBufferReadsZeroAndHoldsNoPages)
{
    ZeroedPages buf(kBytes);
    EXPECT_EQ(buf.size(), kBytes);
    EXPECT_EQ(residentPages(buf), 0u);
    EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                            [](uint8_t b) { return b == 0; }));
}

TEST(ZeroedPages, ZeroClearsWrittenBytesAndReleasesTheirPages)
{
    ZeroedPages buf(kBytes);
    buf[0] = 1;
    buf[kBytes / 2] = 2;
    buf[kBytes - 1] = 3;
    // Three pages, or more where transparent huge pages back them.
    EXPECT_GE(residentPages(buf), 3u);

    buf.zero();
    EXPECT_EQ(residentPages(buf), 0u);
    EXPECT_EQ(buf[0], 0);
    EXPECT_EQ(buf[kBytes / 2], 0);
    EXPECT_EQ(buf[kBytes - 1], 0);
    EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                            [](uint8_t b) { return b == 0; }));
}

} // namespace
} // namespace bitspec
