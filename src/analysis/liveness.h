/**
 * @file
 * IR-level liveness over dense value ids.
 *
 * Arguments take ids 0..numArgs-1 and instructions follow in block
 * and instruction order, so every live set is one bit row per block
 * and iterates in that positional order (never pointer order). The
 * ids are private to the analysis: the function is not renumbered.
 *
 * When built with handler edges, blocks of speculative regions count as
 * predecessors of their handler (paper Eq. 2): anything the handler
 * needs is treated as live throughout the region, which is exactly what
 * makes re-execution after a mid-block misspeculation sound.
 */

#ifndef BITSPEC_ANALYSIS_LIVENESS_H_
#define BITSPEC_ANALYSIS_LIVENESS_H_

#include <cstddef>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "support/bitmatrix.h"

namespace bitspec
{

/** Per-block live-in/live-out sets of Values (args + instructions). */
class Liveness
{
  public:
    /** A read-only view of one block's live set. */
    class ValueSet
    {
      public:
        /** Forward iterator over the set's Values in id order. */
        class iterator
        {
          public:
            using iterator_category = std::forward_iterator_tag;
            using value_type = const Value *;
            using difference_type = std::ptrdiff_t;
            using pointer = const Value *const *;
            using reference = const Value *;

            iterator() = default;
            iterator(const Liveness *lv, const uint64_t *row, size_t id)
                : lv_(lv), row_(row), id_(id)
            {
                settle();
            }

            const Value *operator*() const { return lv_->values_[id_]; }

            iterator &
            operator++()
            {
                ++id_;
                settle();
                return *this;
            }

            iterator
            operator++(int)
            {
                iterator old = *this;
                ++*this;
                return old;
            }

            bool operator==(const iterator &o) const { return id_ == o.id_; }

          private:
            /** Advance to the first set bit at or after id_. */
            void settle();

            const Liveness *lv_ = nullptr;
            const uint64_t *row_ = nullptr;
            size_t id_ = 0;
        };

        iterator begin() const { return iterator(lv_, row_, 0); }

        iterator
        end() const
        {
            return iterator(lv_, row_, lv_->values_.size());
        }

        /** 1 if @p v is in the set, else 0 (std::set-style). */
        size_t count(const Value *v) const;

      private:
        friend class Liveness;
        ValueSet(const Liveness *lv, const uint64_t *row)
            : lv_(lv), row_(row)
        {}

        const Liveness *lv_;
        const uint64_t *row_; ///< nullptr: a block not in the function.
    };

    /**
     * @param f Function to analyse; it is not modified.
     * @param handler_edges Apply the SMIR predecessor rule (Eq. 2).
     */
    Liveness(const Function &f, bool handler_edges);

    ValueSet liveIn(const BasicBlock *bb) const;
    ValueSet liveOut(const BasicBlock *bb) const;

    bool
    isLiveIn(const Value *v, const BasicBlock *bb) const
    {
        return liveIn(bb).count(v) > 0;
    }

  private:
    /** Dense id of @p v, or -1 for values the analysis does not
     *  track (constants, globals, values created after it ran). */
    long idOf(const Value *v) const;
    ValueSet rowOf(const BitMatrix &m, const BasicBlock *bb) const;

    std::vector<const Value *> values_; ///< Id -> value.
    std::unordered_map<const Value *, unsigned> ids_;
    std::unordered_map<const BasicBlock *, unsigned> blockIdx_;
    BitMatrix liveIn_;
    BitMatrix liveOut_;
};

} // namespace bitspec

#endif // BITSPEC_ANALYSIS_LIVENESS_H_
