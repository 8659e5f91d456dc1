/**
 * @file
 * Two-level blocked extent map (start block -> length).
 *
 * The allocator's free, zeroed and retired pools are coalesced sets of
 * disjoint runs. A fresh image holds one free run; a Geriatrix-aged
 * one holds tens of thousands (16.4k after aging aged_churn's 2 GB
 * image), and goal-directed first fit must find the first run in
 * address order that is long enough. A flat sorted vector made that a
 * linear scan plus an O(n) memmove per insert or erase.
 *
 * Here the top level is a vector of leaves ordered by address. Each
 * leaf holds at most kLeafRuns sorted (start, len) runs and caches two
 * maxima over them: the longest run, and the longest 2 MB-aligned
 * usable tail (start + len - hugeAlignUp(start)). A search skips every
 * leaf whose maximum is too small, so first fit costs
 * O(runs / kLeafRuns + kLeafRuns) and never changes which run wins.
 * Insert and erase move at most kLeafRuns entries and replace rewrites
 * a run in place; a full leaf splits in half and an emptied leaf is
 * dropped.
 *
 * Queries are key-based and return runs by value, so no outstanding
 * handle is invalidated by a later emplace or erase. Const iteration
 * visits every run in address order.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

namespace dax::fs {

class ExtentMap
{
  public:
    /** (start, len), pair-shaped so structured bindings work. */
    using value_type = std::pair<std::uint64_t, std::uint64_t>;
    using Run = std::optional<value_type>;

    /** Runs per leaf before it splits. */
    static constexpr std::size_t kLeafRuns = 128;

  private:
    struct Leaf
    {
        std::vector<value_type> runs; ///< sorted by start, never empty
        std::uint64_t lo = 0;         ///< runs.front().first
        std::uint64_t maxLen = 0;     ///< longest run
        std::uint64_t maxTail = 0;    ///< longest huge-aligned tail

        void refresh();
    };

  public:
    /** Forward iterator over every run in address order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = ExtentMap::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer = const value_type *;
        using reference = const value_type &;

        const value_type &
        operator*() const
        {
            return (*leaves_)[leaf_].runs[pos_];
        }
        const value_type *operator->() const { return &**this; }
        const_iterator &
        operator++()
        {
            if (++pos_ == (*leaves_)[leaf_].runs.size()) {
                ++leaf_;
                pos_ = 0;
            }
            return *this;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return leaf_ == o.leaf_ && pos_ == o.pos_;
        }

      private:
        friend class ExtentMap;
        const_iterator(const std::vector<Leaf> *leaves, std::size_t leaf)
            : leaves_(leaves), leaf_(leaf)
        {
        }

        const std::vector<Leaf> *leaves_;
        std::size_t leaf_;
        std::size_t pos_ = 0;
    };

    const_iterator begin() const { return {&leaves_, 0}; }
    const_iterator end() const { return {&leaves_, leaves_.size()}; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t leafCount() const { return leaves_.size(); }
    void
    clear()
    {
        leaves_.clear();
        size_ = 0;
    }

    /** Last run with start <= @p key. */
    Run floor(std::uint64_t key) const;

    /** First run with start > @p key (>= when @p inclusive). */
    Run next(std::uint64_t key, bool inclusive) const;

    /** First run in address order with start in [from, to), len >= need. */
    Run firstFit(std::uint64_t from, std::uint64_t to,
                 std::uint64_t need) const;

    /**
     * First run in address order whose huge-aligned tail holds
     * @p need >= 1 blocks: hugeAlignUp(start) + need <= start + len.
     */
    Run firstAligned(std::uint64_t need) const;

    /** Longest run (0 when empty). */
    std::uint64_t maxLen() const;

    /** Insert (key, len); false (and no change) if key exists. */
    bool emplace(std::uint64_t key, std::uint64_t len);

    /** Remove the run starting at @p key; false if there is none. */
    bool erase(std::uint64_t key);

    /**
     * Rewrite the run starting at @p key as (newKey, len) in place.
     * No other run may start between @p key and @p newKey, so the run
     * keeps its position. False if there is no run at @p key.
     */
    bool replace(std::uint64_t key, std::uint64_t newKey, std::uint64_t len);

  private:
    /** Index of the leaf that holds, or would hold, @p key. */
    std::size_t leafFor(std::uint64_t key) const;

    std::vector<Leaf> leaves_; ///< ordered by address, each non-empty
    std::size_t size_ = 0;
};

} // namespace dax::fs
