/**
 * @file
 * Dense bit rows for dataflow over small integer ids: one row per
 * block, one column per value (IR value id or machine vreg), plus the
 * backward liveness fixpoint both liveness analyses solve on them.
 */

#ifndef BITSPEC_SUPPORT_BITMATRIX_H_
#define BITSPEC_SUPPORT_BITMATRIX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bitspec
{

/** rows x cols bits, zero-initialised, row-major in 64-bit words. */
class BitMatrix
{
  public:
    BitMatrix() = default;
    BitMatrix(size_t rows, size_t cols)
        : words_((cols + 63) / 64), bits_(rows * words_, 0)
    {}

    size_t words() const { return words_; }
    uint64_t *row(size_t r) { return bits_.data() + r * words_; }
    const uint64_t *row(size_t r) const { return bits_.data() + r * words_; }

    void set(size_t r, size_t c) { row(r)[c / 64] |= bit(c); }

    bool
    test(size_t r, size_t c) const
    {
        return (row(r)[c / 64] & bit(c)) != 0;
    }

    /** Call @p fn(c) for every set column of row @p r, ascending. */
    template <typename Fn>
    void
    forEach(size_t r, Fn fn) const
    {
        const uint64_t *w = row(r);
        for (size_t i = 0; i < words_; ++i)
            for (uint64_t x = w[i]; x != 0; x &= x - 1)
                fn(i * 64 + static_cast<size_t>(std::countr_zero(x)));
    }

  private:
    static uint64_t bit(size_t c) { return uint64_t{1} << (c % 64); }

    size_t words_ = 0;
    std::vector<uint64_t> bits_;
};

/**
 * Backward liveness to the least fixed point over blocks 0..n-1:
 *
 *   out[b] = phiUse[b] | OR over s in succs[b] of in[s]
 *   in[b]  = use[b] | (out[b] & ~def[b])
 *
 * @p phi_use (optional) holds values read by successor phis along
 * b's outgoing edges. @p in and @p out must be zero-initialised with
 * the same shape as @p use. Blocks are swept in reverse index order
 * until nothing changes.
 */
inline void
solveLiveness(const std::vector<std::vector<unsigned>> &succs,
              const BitMatrix &use, const BitMatrix &def,
              const BitMatrix *phi_use, BitMatrix &in, BitMatrix &out)
{
    const size_t nw = use.words();
    std::vector<uint64_t> o(nw);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = succs.size(); b-- > 0;) {
            if (phi_use) {
                const uint64_t *p = phi_use->row(b);
                std::copy(p, p + nw, o.begin());
            } else {
                std::fill(o.begin(), o.end(), 0);
            }
            for (unsigned s : succs[b]) {
                const uint64_t *si = in.row(s);
                for (size_t w = 0; w < nw; ++w)
                    o[w] |= si[w];
            }
            uint64_t *ob = out.row(b);
            uint64_t *ib = in.row(b);
            const uint64_t *u = use.row(b);
            const uint64_t *d = def.row(b);
            for (size_t w = 0; w < nw; ++w) {
                const uint64_t iw = u[w] | (o[w] & ~d[w]);
                if (ob[w] != o[w] || ib[w] != iw) {
                    ob[w] = o[w];
                    ib[w] = iw;
                    changed = true;
                }
            }
        }
    }
}

} // namespace bitspec

#endif // BITSPEC_SUPPORT_BITMATRIX_H_
