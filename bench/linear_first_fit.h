/**
 * @file
 * Linear first-fit reference for fs::BlockAllocator.
 *
 * The allocator's placement as it was computed on one flat sorted
 * vector per pool: every first-fit search is a scan in address order
 * and every insert or erase moves the vector's tail. fs::BlockAllocator
 * must choose exactly the same blocks on its two-level extent map.
 * tests/property_test.cc drives both side by side and compares every
 * returned extent and pool; bench/micro_ops.cc times both on the same
 * aged churn loop ("aged_alloc" speedup). Nothing in src/ uses it.
 *
 * Only the placement-relevant surface is modelled: no prezero sink,
 * no diverted-block count, no consistency check.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fs/extent.h"

namespace dax::bench {

class LinearFirstFit
{
  public:
    /** (start, len), sorted by start and coalesced. */
    using Pool = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

    explicit LinearFirstFit(std::uint64_t nBlocks) : totalBlocks_(nBlocks)
    {
        free_.emplace_back(0, nBlocks);
        freeBlocks_ = nBlocks;
    }

    std::vector<fs::Extent>
    alloc(std::uint64_t count, std::uint64_t goal,
          std::vector<bool> *zeroed = nullptr,
          bool preferHugeAligned = false)
    {
        std::vector<fs::Extent> out;
        if (count == 0 || freeBlocks_ + zeroedBlocks_ < count)
            return out;
        const std::uint64_t fromZeroed = std::min(zeroedBlocks_, count);
        if (fromZeroed > 0) {
            for (const auto &e :
                 carve(zeroedPool_, fromZeroed, goal, zeroedBlocks_, false)) {
                out.push_back(e);
                if (zeroed != nullptr)
                    zeroed->push_back(true);
            }
        }
        const std::uint64_t rest = count - fromZeroed;
        if (rest > 0) {
            for (const auto &e :
                 carve(free_, rest, goal, freeBlocks_,
                       preferHugeAligned && rest >= fs::kBlocksPerHuge)) {
                out.push_back(e);
                if (zeroed != nullptr)
                    zeroed->push_back(false);
            }
        }
        return out;
    }

    void
    free(const fs::Extent &e)
    {
        insertFree(free_, e);
        freeBlocks_ += e.count;
    }

    void
    freeZeroed(const fs::Extent &e)
    {
        insertFree(zeroedPool_, e);
        zeroedBlocks_ += e.count;
    }

    void
    retire(const fs::Extent &e)
    {
        if (e.count == 0)
            return;
        insertFree(retired_, e);
        retiredBlocks_ += e.count;
    }

    std::uint64_t
    rebuildFrom(const std::vector<fs::Extent> &allocated)
    {
        free_.assign(1, {0, totalBlocks_});
        freeBlocks_ = totalBlocks_;
        zeroedPool_.clear();
        zeroedBlocks_ = 0;
        retired_.clear();
        retiredBlocks_ = 0;
        std::uint64_t conflicts = 0;
        for (const auto &e : allocated) {
            if (e.count == 0)
                continue;
            if (e.endBlock() > totalBlocks_) {
                conflicts += e.count;
                continue;
            }
            const std::uint64_t removed = removeRange(free_, e);
            freeBlocks_ -= removed;
            conflicts += e.count - removed;
        }
        return conflicts;
    }

    void
    rebuildRetired(const std::vector<fs::Extent> &retired)
    {
        for (const auto &e : retired) {
            if (e.count == 0 || e.endBlock() > totalBlocks_)
                continue;
            freeBlocks_ -= removeRange(free_, e);
            insertFree(retired_, e);
            retiredBlocks_ += e.count;
        }
    }

    bool
    promoteZeroed(const fs::Extent &e)
    {
        if (e.count == 0)
            return true;
        if (e.endBlock() > totalBlocks_)
            return false;
        auto it = upperBound(free_, e.block);
        if (it == free_.begin())
            return false;
        --it;
        if (it->first + it->second < e.endBlock())
            return false;
        removeRange(free_, e);
        freeBlocks_ -= e.count;
        insertFree(zeroedPool_, e);
        zeroedBlocks_ += e.count;
        return true;
    }

    std::uint64_t freeBlocks() const { return freeBlocks_; }
    std::uint64_t zeroedBlocks() const { return zeroedBlocks_; }
    std::uint64_t retiredBlocks() const { return retiredBlocks_; }
    std::uint64_t freeExtents() const { return free_.size(); }
    const Pool &freePool() const { return free_; }
    const Pool &zeroedPool() const { return zeroedPool_; }
    const Pool &retiredPool() const { return retired_; }

  private:
    static Pool::iterator
    lowerBound(Pool &pool, std::uint64_t key)
    {
        return std::lower_bound(
            pool.begin(), pool.end(), key,
            [](const auto &run, std::uint64_t k) { return run.first < k; });
    }

    static Pool::iterator
    upperBound(Pool &pool, std::uint64_t key)
    {
        return std::upper_bound(
            pool.begin(), pool.end(), key,
            [](std::uint64_t k, const auto &run) { return k < run.first; });
    }

    static void
    emplace(Pool &pool, std::uint64_t key, std::uint64_t len)
    {
        pool.insert(lowerBound(pool, key), {key, len});
    }

    static void
    insertFree(Pool &pool, const fs::Extent &e)
    {
        auto it = lowerBound(pool, e.block);
        if (it != pool.end() && it->first == e.block)
            throw std::logic_error("double free of block extent");
        it = pool.insert(it, {e.block, e.count});
        auto next = std::next(it);
        const bool overlapsNext =
            next != pool.end() && e.endBlock() > next->first;
        const bool overlapsPrev = it != pool.begin()
            && std::prev(it)->first + std::prev(it)->second > e.block;
        if (overlapsNext || overlapsPrev) {
            pool.erase(it);
            throw std::logic_error("double free of block extent");
        }
        if (next != pool.end() && it->first + it->second == next->first) {
            it->second += next->second;
            pool.erase(next);
        }
        if (it != pool.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                pool.erase(it);
            }
        }
    }

    static std::vector<fs::Extent>
    carve(Pool &map, std::uint64_t count, std::uint64_t goal,
          std::uint64_t &pool, bool hugeAligned)
    {
        std::vector<fs::Extent> out;
        if (count == 0 || pool < count)
            return out;
        std::uint64_t remaining = count;

        if (hugeAligned) {
            for (auto it = map.begin(); it != map.end(); ++it) {
                const std::uint64_t start = it->first;
                const std::uint64_t len = it->second;
                const std::uint64_t aligned = fs::hugeAlignUp(start);
                if (aligned + remaining > start + len)
                    continue;
                const std::uint64_t head = aligned - start;
                const std::uint64_t tail = start + len - aligned - remaining;
                map.erase(it);
                if (head > 0)
                    emplace(map, start, head);
                if (tail > 0)
                    emplace(map, aligned + remaining, tail);
                out.push_back({aligned, remaining});
                pool -= remaining;
                return out;
            }
        }

        auto tryWhole = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; i++) {
                const auto [start, len] = map[i];
                if (len < remaining)
                    continue;
                out.push_back({start, remaining});
                map.erase(map.begin() + static_cast<std::ptrdiff_t>(i));
                if (len > remaining)
                    emplace(map, start + remaining, len - remaining);
                pool -= remaining;
                remaining = 0;
                return true;
            }
            return false;
        };
        const auto atGoal =
            static_cast<std::size_t>(lowerBound(map, goal) - map.begin());
        if (tryWhole(atGoal, map.size()) || tryWhole(0, atGoal))
            return out;

        while (remaining > 0) {
            auto it = lowerBound(map, goal);
            if (it == map.end())
                it = map.begin();
            if (it == map.end())
                break;
            const auto [start, len] = *it;
            const std::uint64_t take = std::min(len, remaining);
            out.push_back({start, take});
            map.erase(it);
            if (len > take)
                emplace(map, start + take, len - take);
            pool -= take;
            remaining -= take;
        }
        if (remaining > 0) {
            for (const auto &e : out) {
                insertFree(map, e);
                pool += e.count;
            }
            out.clear();
        }
        return out;
    }

    static std::uint64_t
    removeRange(Pool &map, const fs::Extent &e)
    {
        const std::uint64_t start = e.block;
        const std::uint64_t end = e.endBlock();
        std::uint64_t removed = 0;
        std::size_t i =
            static_cast<std::size_t>(upperBound(map, start) - map.begin());
        if (i > 0)
            --i;
        while (i < map.size()) {
            const auto [runStart, runLen] = map[i];
            if (runStart >= end)
                break;
            const std::uint64_t runEnd = runStart + runLen;
            if (runEnd <= start) {
                ++i;
                continue;
            }
            const std::uint64_t cutStart = std::max(runStart, start);
            const std::uint64_t cutEnd = std::min(runEnd, end);
            removed += cutEnd - cutStart;
            map.erase(map.begin() + static_cast<std::ptrdiff_t>(i));
            if (runStart < cutStart) {
                emplace(map, runStart, cutStart - runStart);
                ++i;
            }
            if (cutEnd < runEnd) {
                emplace(map, cutEnd, runEnd - cutEnd);
                ++i;
            }
        }
        return removed;
    }

    std::uint64_t totalBlocks_;
    Pool free_;
    Pool zeroedPool_;
    Pool retired_;
    std::uint64_t freeBlocks_ = 0;
    std::uint64_t zeroedBlocks_ = 0;
    std::uint64_t retiredBlocks_ = 0;
};

} // namespace dax::bench
