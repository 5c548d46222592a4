#include "support/zeroed_pages.h"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace bitspec
{

ZeroedPages::ZeroedPages(size_t size) : size_(size)
{
    void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<uint8_t *>(p);
}

ZeroedPages::~ZeroedPages()
{
    munmap(data_, size_);
}

void
ZeroedPages::zero()
{
    // A private anonymous page reads as zero after MADV_DONTNEED.
    if (madvise(data_, size_, MADV_DONTNEED) != 0)
        std::memset(data_, 0, size_);
}

} // namespace bitspec
