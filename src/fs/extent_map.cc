/**
 * @file
 * ExtentMap implementation.
 */
#include "fs/extent_map.h"

#include <algorithm>

#include "fs/extent.h"

namespace dax::fs {

namespace {

/** Blocks of @p run usable from its first 2 MB boundary on. */
std::uint64_t
alignedTail(const ExtentMap::value_type &run)
{
    const std::uint64_t aligned = hugeAlignUp(run.first);
    const std::uint64_t end = run.first + run.second;
    return aligned < end ? end - aligned : 0;
}

bool
startsBefore(const ExtentMap::value_type &run, std::uint64_t key)
{
    return run.first < key;
}

bool
keyBefore(std::uint64_t key, const ExtentMap::value_type &run)
{
    return key < run.first;
}

} // namespace

void
ExtentMap::Leaf::refresh()
{
    lo = runs.front().first;
    maxLen = 0;
    maxTail = 0;
    for (const value_type &run : runs) {
        maxLen = std::max(maxLen, run.second);
        maxTail = std::max(maxTail, alignedTail(run));
    }
}

std::size_t
ExtentMap::leafFor(std::uint64_t key) const
{
    // First leaf starting after key, then step back to its predecessor.
    auto it = std::upper_bound(leaves_.begin(), leaves_.end(), key,
                               [](std::uint64_t k, const Leaf &leaf) {
                                   return k < leaf.lo;
                               });
    return it == leaves_.begin()
             ? 0
             : static_cast<std::size_t>(it - leaves_.begin()) - 1;
}

ExtentMap::Run
ExtentMap::floor(std::uint64_t key) const
{
    if (leaves_.empty())
        return std::nullopt;
    const auto &runs = leaves_[leafFor(key)].runs;
    auto it = std::upper_bound(runs.begin(), runs.end(), key, keyBefore);
    if (it == runs.begin())
        return std::nullopt; // key precedes every run
    return *std::prev(it);
}

ExtentMap::Run
ExtentMap::next(std::uint64_t key, bool inclusive) const
{
    if (leaves_.empty())
        return std::nullopt;
    const std::size_t li = leafFor(key);
    const auto &runs = leaves_[li].runs;
    auto it = inclusive
                ? std::lower_bound(runs.begin(), runs.end(), key,
                                   startsBefore)
                : std::upper_bound(runs.begin(), runs.end(), key,
                                   keyBefore);
    if (it != runs.end())
        return *it;
    if (li + 1 < leaves_.size())
        return leaves_[li + 1].runs.front();
    return std::nullopt;
}

ExtentMap::Run
ExtentMap::firstFit(std::uint64_t from, std::uint64_t to,
                    std::uint64_t need) const
{
    if (leaves_.empty() || from >= to)
        return std::nullopt;
    std::size_t li = leafFor(from);
    {
        const auto &runs = leaves_[li].runs;
        auto it =
            std::lower_bound(runs.begin(), runs.end(), from, startsBefore);
        if (leaves_[li].maxLen >= need) {
            for (; it != runs.end() && it->first < to; ++it)
                if (it->second >= need)
                    return *it;
        }
    }
    for (++li; li < leaves_.size(); ++li) {
        const Leaf &leaf = leaves_[li];
        if (leaf.lo >= to)
            break;
        if (leaf.maxLen < need)
            continue;
        for (const value_type &run : leaf.runs) {
            if (run.first >= to)
                return std::nullopt;
            if (run.second >= need)
                return run;
        }
    }
    return std::nullopt;
}

ExtentMap::Run
ExtentMap::firstAligned(std::uint64_t need) const
{
    for (const Leaf &leaf : leaves_) {
        if (leaf.maxTail < need)
            continue;
        for (const value_type &run : leaf.runs)
            if (alignedTail(run) >= need)
                return run;
    }
    return std::nullopt;
}

std::uint64_t
ExtentMap::maxLen() const
{
    std::uint64_t best = 0;
    for (const Leaf &leaf : leaves_)
        best = std::max(best, leaf.maxLen);
    return best;
}

bool
ExtentMap::emplace(std::uint64_t key, std::uint64_t len)
{
    const value_type run{key, len};
    if (leaves_.empty()) {
        leaves_.push_back(Leaf{{run}, key, len, alignedTail(run)});
        size_ = 1;
        return true;
    }
    std::size_t li = leafFor(key);
    auto *runs = &leaves_[li].runs;
    auto it = std::lower_bound(runs->begin(), runs->end(), key,
                               startsBefore);
    if (it != runs->end() && it->first == key)
        return false;
    if (runs->size() == kLeafRuns) {
        // Split the full leaf in half; the key lands in whichever
        // half covers it.
        const auto mid = runs->begin() + kLeafRuns / 2;
        Leaf upper{{mid, runs->end()}, 0, 0, 0};
        runs->erase(mid, runs->end());
        leaves_[li].refresh();
        upper.refresh();
        leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li)
                           + 1,
                       std::move(upper));
        if (key > leaves_[li + 1].lo)
            ++li;
        runs = &leaves_[li].runs;
        it = std::lower_bound(runs->begin(), runs->end(), key,
                              startsBefore);
    }
    runs->insert(it, run);
    Leaf &leaf = leaves_[li];
    leaf.lo = runs->front().first;
    leaf.maxLen = std::max(leaf.maxLen, len);
    leaf.maxTail = std::max(leaf.maxTail, alignedTail(run));
    ++size_;
    return true;
}

bool
ExtentMap::erase(std::uint64_t key)
{
    if (leaves_.empty())
        return false;
    const std::size_t li = leafFor(key);
    Leaf &leaf = leaves_[li];
    auto it = std::lower_bound(leaf.runs.begin(), leaf.runs.end(), key,
                               startsBefore);
    if (it == leaf.runs.end() || it->first != key)
        return false;
    const value_type gone = *it;
    leaf.runs.erase(it);
    --size_;
    if (leaf.runs.empty())
        leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li));
    else if (gone.second == leaf.maxLen
             || (leaf.maxTail > 0 && alignedTail(gone) == leaf.maxTail))
        leaf.refresh(); // the run may have held a maximum
    else
        leaf.lo = leaf.runs.front().first;
    return true;
}

bool
ExtentMap::replace(std::uint64_t key, std::uint64_t newKey,
                   std::uint64_t len)
{
    if (leaves_.empty())
        return false;
    Leaf &leaf = leaves_[leafFor(key)];
    auto it = std::lower_bound(leaf.runs.begin(), leaf.runs.end(), key,
                               startsBefore);
    if (it == leaf.runs.end() || it->first != key)
        return false;
    const value_type old = *it;
    *it = {newKey, len};
    const std::uint64_t tail = alignedTail(*it);
    if ((old.second == leaf.maxLen && len < old.second)
        || (leaf.maxTail > 0 && alignedTail(old) == leaf.maxTail
            && tail < leaf.maxTail)) {
        leaf.refresh(); // a maximum may have shrunk
    } else {
        leaf.lo = leaf.runs.front().first;
        leaf.maxLen = std::max(leaf.maxLen, len);
        leaf.maxTail = std::max(leaf.maxTail, tail);
    }
    return true;
}

} // namespace dax::fs
