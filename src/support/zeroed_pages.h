/**
 * @file
 * A fixed-size, zero-initialised byte buffer mapped straight from the
 * operating system, for the simulated data memories (4 MiB each).
 *
 * Through malloc, a buffer that size lands in the allocating thread's
 * arena once the first one has been freed (glibc then raises its
 * mmap threshold past it), and the pages it leaves behind stay
 * resident in that arena's top chunk after the owner is gone. Which
 * arenas keep them depends on thread scheduling, so the resident set
 * of a process that runs many short-lived machines drifts from one
 * run to the next. A mapping of its own is returned to the system
 * when the buffer dies, and its untouched pages cost nothing: a fresh
 * buffer reads as zero without being written.
 */

#ifndef BITSPEC_SUPPORT_ZEROED_PAGES_H_
#define BITSPEC_SUPPORT_ZEROED_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace bitspec
{

/** An anonymous private mapping of @p size bytes, all zero at first. */
class ZeroedPages
{
  public:
    /** @throws std::bad_alloc when the mapping fails. */
    explicit ZeroedPages(size_t size);
    ~ZeroedPages();

    ZeroedPages(const ZeroedPages &) = delete;
    ZeroedPages &operator=(const ZeroedPages &) = delete;

    /** Makes every byte zero again by handing the pages back to the
     *  system: this costs in proportion to the pages written since,
     *  not to size(), and they cost memory again only once written. */
    void zero();

    uint8_t *data() { return data_; }
    size_t size() const { return size_; }
    uint8_t *begin() { return data_; }
    uint8_t *end() { return data_ + size_; }

    uint8_t &operator[](size_t i) { return data_[i]; }
    uint8_t operator[](size_t i) const { return data_[i]; }

  private:
    uint8_t *data_;
    size_t size_;
};

} // namespace bitspec

#endif // BITSPEC_SUPPORT_ZEROED_PAGES_H_
