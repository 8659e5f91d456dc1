/**
 * @file
 * Property-based (parameterized) tests: randomized operation sequences
 * checked against simple reference implementations, and invariant
 * sweeps across file sizes and interfaces.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "bench/linear_first_fit.h"
#include "fs/block_alloc.h"
#include "fs/extent_map.h"
#include "fs/interval.h"
#include "sim/busy_intervals.h"
#include "sim/rng.h"
#include "sys/system.h"
#include "workloads/common.h"

using namespace dax;

// ---------------------------------------------------------------------
// IntervalMap vs a bitset reference
// ---------------------------------------------------------------------

class IntervalProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IntervalProperty, MatchesBitsetReference)
{
    sim::Rng rng(GetParam());
    fs::IntervalMap map;
    std::vector<bool> ref(4096, false);

    for (int op = 0; op < 2000; op++) {
        const std::uint64_t start = rng.below(4000);
        const std::uint64_t count = 1 + rng.below(96);
        if (rng.below(2) == 0) {
            fs::intervalInsert(map, start, count);
            for (std::uint64_t i = start; i < start + count; i++)
                ref[i] = true;
        } else {
            const std::uint64_t removed =
                fs::intervalErase(map, start, count);
            std::uint64_t expect = 0;
            for (std::uint64_t i = start; i < start + count; i++) {
                if (ref[i]) {
                    expect++;
                    ref[i] = false;
                }
            }
            ASSERT_EQ(removed, expect) << "op " << op;
        }
    }

    // Final state equivalence.
    std::uint64_t total = 0;
    for (const auto b : ref)
        total += b ? 1 : 0;
    ASSERT_EQ(fs::intervalTotal(map), total);
    for (std::uint64_t i = 0; i < ref.size(); i++) {
        ASSERT_EQ(fs::intervalOverlaps(map, i, 1), ref[i])
            << "unit " << i;
    }
    // Intervals are canonical: disjoint and coalesced.
    bool first = true;
    std::uint64_t prevEnd = 0;
    for (const auto &[s, c] : map) {
        if (!first) {
            ASSERT_GT(s, prevEnd) << "not coalesced/disjoint";
        }
        first = false;
        prevEnd = s + c;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// BusyIntervals: reservations never overlap recorded busy periods
// ---------------------------------------------------------------------

class BusyIntervalsProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BusyIntervalsProperty, ReservedSlotsNeverOverlap)
{
    sim::Rng rng(GetParam());
    sim::BusyIntervals busy;
    std::vector<std::pair<sim::Time, sim::Time>> recorded;

    for (int op = 0; op < 500; op++) {
        const sim::Time t = rng.below(100000);
        const sim::Time d = 1 + rng.below(500);
        const sim::Time start = busy.reserveSlot(t, d);
        ASSERT_GE(start, t);
        for (const auto &[a, b] : recorded) {
            ASSERT_TRUE(start + d <= a || start >= b)
                << "slot [" << start << "," << start + d
                << ") overlaps [" << a << "," << b << ")";
        }
        busy.insert(start, start + d);
        recorded.emplace_back(start, start + d);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyIntervalsProperty,
                         ::testing::Values(7, 11, 19, 23, 42));

// ---------------------------------------------------------------------
// Block allocator conservation under random churn
// ---------------------------------------------------------------------

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorProperty, ConservesBlocksUnderChurn)
{
    sim::Rng rng(GetParam());
    const std::uint64_t total = 16384;
    fs::BlockAllocator alloc(total, 0);
    std::vector<fs::Extent> held;
    std::uint64_t heldBlocks = 0;

    for (int op = 0; op < 3000; op++) {
        if (rng.below(2) == 0 || held.empty()) {
            const std::uint64_t want = 1 + rng.below(512);
            auto got = alloc.alloc(want, rng.below(total));
            std::uint64_t gotBlocks = 0;
            for (const auto &e : got) {
                gotBlocks += e.count;
                held.push_back(e);
            }
            if (!got.empty()) {
                ASSERT_EQ(gotBlocks, want);
            }
            heldBlocks += gotBlocks;
        } else {
            const std::uint64_t idx = rng.below(held.size());
            heldBlocks -= held[idx].count;
            alloc.free(held[idx]);
            held[idx] = held.back();
            held.pop_back();
        }
        ASSERT_EQ(alloc.freeBlocks() + alloc.zeroedBlocks() + heldBlocks,
                  total)
            << "block conservation violated at op " << op;
    }

    // Free everything: the map must coalesce back to one extent.
    for (const auto &e : held)
        alloc.free(e);
    EXPECT_EQ(alloc.freeBlocks(), total);
    EXPECT_EQ(alloc.freeExtents(), 1u);
    EXPECT_EQ(alloc.largestFreeExtent(), total);
    EXPECT_TRUE(alloc.check().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(3, 9, 27, 81));

// ---------------------------------------------------------------------
// Two-level extent map and first fit vs the linear reference
// ---------------------------------------------------------------------

namespace {

using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Runs
runsOf(const fs::ExtentMap &map)
{
    return Runs(map.begin(), map.end());
}

Runs
runsOf(const std::vector<fs::Extent> &extents)
{
    Runs out;
    for (const auto &e : extents)
        out.emplace_back(e.block, e.count);
    return out;
}

} // namespace

TEST(ExtentMapLeaves, SplitAndDropAtLeafBoundary)
{
    constexpr std::uint64_t kRuns = fs::ExtentMap::kLeafRuns;
    constexpr std::uint64_t kStride = 1024; // runs stay disjoint
    fs::ExtentMap map;
    std::map<std::uint64_t, std::uint64_t> ref;
    auto lenOf = [](std::uint64_t i) { return 1 + i * 37 % 1000; };

    // Every query against a scan of the std::map reference.
    auto expectQueriesMatch = [&](std::uint64_t key, std::uint64_t need) {
        using Run = fs::ExtentMap::Run;
        Run floor, next, nextIncl, fitFrom, fitBelow, aligned;
        std::uint64_t maxLen = 0;
        for (const auto &run : ref) {
            const auto &[start, len] = run;
            if (start <= key)
                floor = run;
            if (!next && start > key)
                next = run;
            if (!nextIncl && start >= key)
                nextIncl = run;
            if (!fitFrom && start >= key && len >= need)
                fitFrom = run;
            if (!fitBelow && start < key && len >= need)
                fitBelow = run;
            if (!aligned && fs::hugeAlignUp(start) + need <= start + len)
                aligned = run;
            maxLen = std::max(maxLen, len);
        }
        EXPECT_EQ(map.floor(key), floor) << key;
        EXPECT_EQ(map.next(key, false), next) << key;
        EXPECT_EQ(map.next(key, true), nextIncl) << key;
        EXPECT_EQ(map.firstFit(key, UINT64_MAX, need), fitFrom) << key;
        EXPECT_EQ(map.firstFit(0, key, need), fitBelow) << key;
        EXPECT_EQ(map.firstAligned(need), aligned) << need;
        EXPECT_EQ(map.maxLen(), maxLen);
        EXPECT_EQ(map.size(), ref.size());
    };
    auto insert = [&](std::uint64_t i) {
        ASSERT_TRUE(map.emplace(i * kStride, lenOf(i)));
        ref.emplace(i * kStride, lenOf(i));
    };

    // Exactly one full leaf; one more run splits it.
    for (std::uint64_t i = 0; i < kRuns; i++)
        insert(2 * i);
    EXPECT_EQ(map.leafCount(), 1u);
    insert(1);
    EXPECT_EQ(map.leafCount(), 2u);
    EXPECT_FALSE(map.emplace(kStride, 5)) << "duplicate key accepted";

    // Well above one leaf: fill the odd slots back to front.
    for (std::uint64_t i = 2 * kRuns - 1; i > 1; i -= 2)
        insert(i);
    for (std::uint64_t i = 2 * kRuns; i < 5 * kRuns; i++)
        insert(i);
    EXPECT_GT(map.leafCount(), 5u);
    EXPECT_EQ(runsOf(map), Runs(ref.begin(), ref.end()));

    // In-place rewrites keep each run's position: shrink from the
    // front, grow at the end, or move the start down towards the
    // predecessor (which ends at least 24 blocks earlier).
    sim::Rng rng(17);
    EXPECT_FALSE(map.replace(kStride + 1, kStride + 1, 1));
    for (std::uint64_t i = 1; i < 5 * kRuns; i += 3) {
        const std::uint64_t key = i * kStride;
        const std::uint64_t len = ref.at(key);
        std::uint64_t newKey = key;
        std::uint64_t newLen = len;
        switch (rng.below(3)) {
        case 0:
            newKey = key + len / 2;
            newLen = len - len / 2;
            break;
        case 1:
            newLen = len + rng.below(kStride - len);
            break;
        default:
            newKey = key - 20;
            newLen = len + 20;
            break;
        }
        ASSERT_TRUE(map.replace(key, newKey, newLen));
        ref.erase(key);
        ref.emplace(newKey, newLen);
    }
    EXPECT_EQ(runsOf(map), Runs(ref.begin(), ref.end()));
    for (int q = 0; q < 400; q++)
        expectQueriesMatch(rng.below(5 * kRuns * kStride + kStride),
                           1 + rng.below(1000));

    // Erase in random order down to empty; every emptied leaf drops.
    std::vector<std::uint64_t> keys;
    for (const auto &[start, len] : ref)
        keys.push_back(start);
    for (std::size_t i = keys.size(); i > 1; i--)
        std::swap(keys[i - 1], keys[rng.below(i)]);
    for (std::size_t i = 0; i < keys.size(); i++) {
        ASSERT_TRUE(map.erase(keys[i]));
        ASSERT_FALSE(map.erase(keys[i])) << "erased twice";
        ref.erase(keys[i]);
        ASSERT_LE(map.leafCount(), map.size());
        if (i % 7 == 0)
            expectQueriesMatch(rng.below(5 * kRuns * kStride),
                               1 + rng.below(1000));
    }
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.leafCount(), 0u);
    EXPECT_TRUE(map.begin() == map.end());
    expectQueriesMatch(0, 1);
}

class FirstFitDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FirstFitDifferential, SamePlacementAsLinearReference)
{
    constexpr std::uint64_t kBlocks = 8192;
    sim::Rng rng(GetParam());
    fs::BlockAllocator alloc(kBlocks, 0);
    bench::LinearFirstFit ref(kBlocks);
    std::vector<fs::Extent> held;    ///< allocated, owned by the test
    std::vector<fs::Extent> retired; ///< retired, for rebuildRetired
    std::uint64_t peakRuns = 0;

    auto expectSame = [&](int op) {
        ASSERT_EQ(runsOf(alloc.freeMap()), ref.freePool()) << "op " << op;
        ASSERT_EQ(runsOf(alloc.zeroedExtents()), ref.zeroedPool())
            << "op " << op;
        ASSERT_EQ(runsOf(alloc.retiredMap()), ref.retiredPool())
            << "op " << op;
        ASSERT_EQ(alloc.freeBlocks(), ref.freeBlocks()) << "op " << op;
        ASSERT_EQ(alloc.zeroedBlocks(), ref.zeroedBlocks()) << "op " << op;
        ASSERT_EQ(alloc.retiredBlocks(), ref.retiredBlocks())
            << "op " << op;
        std::uint64_t largest = 0;
        for (const auto &[start, len] : ref.freePool())
            largest = std::max(largest, len);
        ASSERT_EQ(alloc.largestFreeExtent(), largest) << "op " << op;
        const auto problems = alloc.check();
        ASSERT_TRUE(problems.empty()) << "op " << op << ": " << problems[0];
        peakRuns = std::max(peakRuns, alloc.freeExtents());
    };
    auto allocBoth = [&](std::uint64_t count, std::uint64_t goal,
                         bool huge, int op) {
        std::vector<bool> zA, zR;
        const auto got = alloc.alloc(count, goal, &zA, huge);
        const auto want = ref.alloc(count, goal, &zR, huge);
        ASSERT_EQ(got, want) << "op " << op << " alloc " << count
                             << " at " << goal;
        ASSERT_EQ(zA, zR) << "op " << op;
        held.insert(held.end(), got.begin(), got.end());
    };
    // Take a held extent, sometimes only its front part (the rest stays
    // held), so frees land next to both allocated and free blocks.
    auto takeHeld = [&]() {
        const std::uint64_t idx = rng.below(held.size());
        fs::Extent e = held[idx];
        if (e.count > 1 && rng.below(3) == 0) {
            const std::uint64_t part = 1 + rng.below(e.count - 1);
            held[idx] = {e.block + part, e.count - part};
            e.count = part;
        } else {
            held[idx] = held.back();
            held.pop_back();
        }
        return e;
    };

    // Shred free space into far more runs than one leaf holds: fill
    // with 1-3 block extents, then free a random half of them.
    while (alloc.freeBlocks() > 64)
        allocBoth(1 + rng.below(3), rng.below(kBlocks), false, -1);
    for (std::size_t n = held.size() / 2; n > 0; n--) {
        const fs::Extent e = takeHeld();
        alloc.free(e);
        ref.free(e);
    }
    expectSame(-1);
    if (HasFatalFailure())
        return;
    EXPECT_GT(peakRuns, 4 * fs::ExtentMap::kLeafRuns);

    for (int op = 0; op < 4000; op++) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 35 || held.empty()) {
            // Mostly small requests; a quarter up to 1100 blocks, which
            // reach the huge-aligned pass and gather fragments.
            const std::uint64_t count = rng.below(4) == 0
                                          ? 1 + rng.below(1100)
                                          : 1 + rng.below(16);
            allocBoth(count, rng.below(kBlocks + 64), rng.below(2) == 0,
                      op);
        } else if (kind < 60) {
            const fs::Extent e = takeHeld();
            alloc.free(e);
            ref.free(e);
        } else if (kind < 70) {
            const fs::Extent e = takeHeld();
            alloc.freeZeroed(e);
            ref.freeZeroed(e);
        } else if (kind < 74) {
            const fs::Extent e = takeHeld();
            alloc.retire(e);
            ref.retire(e);
            retired.push_back(e);
        } else if (kind < 80) {
            const fs::Extent e{rng.below(kBlocks), 1 + rng.below(64)};
            ASSERT_EQ(alloc.promoteZeroed(e), ref.promoteZeroed(e))
                << "op " << op;
        } else if (kind < 82) {
            // Crash recovery: the held extents are the durable image.
            ASSERT_EQ(alloc.rebuildFrom(held), ref.rebuildFrom(held))
                << "op " << op;
            alloc.rebuildRetired(retired);
            ref.rebuildRetired(retired);
        } else if (kind < 88) {
            // Double free of part of a free run: both refuse it and
            // neither changes.
            if (!alloc.freeMap().empty()) {
                const auto run =
                    alloc.freeMap().floor(rng.below(kBlocks));
                if (run) {
                    const fs::Extent e{run->first + rng.below(run->second),
                                       1 + rng.below(8)};
                    EXPECT_THROW(alloc.free(e), std::logic_error);
                    EXPECT_THROW(ref.free(e), std::logic_error);
                }
            }
        } else if (kind < 94) {
            // Everything that is left: gathers every fragment.
            allocBoth(alloc.freeBlocks() + alloc.zeroedBlocks(),
                      rng.below(kBlocks), rng.below(2) == 0, op);
        } else {
            // One block more than is left: ENOSPC, nothing changes.
            allocBoth(alloc.freeBlocks() + alloc.zeroedBlocks() + 1,
                      rng.below(kBlocks), false, op);
        }
        expectSame(op);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstFitDifferential,
                         ::testing::Values(1, 5, 42, 424242));

// ---------------------------------------------------------------------
// Data integrity across interfaces and file sizes
// ---------------------------------------------------------------------

struct IntegrityParam
{
    std::uint64_t fileBytes;
    wl::Interface interface;
};

class IntegritySweep : public ::testing::TestWithParam<IntegrityParam>
{
};

TEST_P(IntegritySweep, EveryInterfaceReadsIdenticalBytes)
{
    const auto param = GetParam();
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    sys::System system(config);

    const fs::Ino ino =
        system.makeFile("/f", param.fileBytes, param.fileBytes);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);

    std::vector<std::uint8_t> out(param.fileBytes, 0);
    if (param.interface == wl::Interface::Read) {
        ASSERT_EQ(system.fs().read(cpu, ino, 0, out.data(), out.size()),
                  out.size());
    } else {
        wl::AccessOptions access;
        access.interface = param.interface;
        const std::uint64_t va = wl::mapFile(
            cpu, system, *as, ino, 0, param.fileBytes, false, access);
        ASSERT_NE(va, 0u);
        as->memRead(cpu, va, out.size(), mem::Pattern::Seq, out.data());
        wl::unmapFile(cpu, system, *as, va, param.fileBytes, access);
    }
    for (std::uint64_t i = 0; i < out.size();
         i += std::max<std::uint64_t>(1, out.size() / 257)) {
        ASSERT_EQ(out[i], sys::System::patternByte(ino, i))
            << "offset " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndInterfaces, IntegritySweep,
    ::testing::Values(
        IntegrityParam{1024, wl::Interface::Read},
        IntegrityParam{1024, wl::Interface::Mmap},
        IntegrityParam{1024, wl::Interface::DaxVm},
        IntegrityParam{32768, wl::Interface::Read},
        IntegrityParam{32768, wl::Interface::Mmap},
        IntegrityParam{32768, wl::Interface::MmapPopulate},
        IntegrityParam{32768, wl::Interface::DaxVm},
        IntegrityParam{1 << 20, wl::Interface::Mmap},
        IntegrityParam{1 << 20, wl::Interface::DaxVm},
        IntegrityParam{(4 << 20) + 4096, wl::Interface::Mmap},
        IntegrityParam{(4 << 20) + 4096, wl::Interface::DaxVm}));

// ---------------------------------------------------------------------
// DaxVM invariants across file sizes
// ---------------------------------------------------------------------

class DaxVmSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DaxVmSizeSweep, NoFaultsAndBoundedAttachCost)
{
    const std::uint64_t bytes = GetParam();
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 2ULL << 30;
    config.pmemTableBytes = 256ULL << 20;
    config.dramBytes = 512ULL << 20;
    sys::System system(config);
    const fs::Ino ino = system.makeFile("/f", bytes);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);

    const sim::Time before = cpu.now();
    const std::uint64_t va =
        system.dax()->mmap(cpu, *as, ino, 0, bytes, false, 0);
    ASSERT_NE(va, 0u);
    const sim::Time mapCost = cpu.now() - before;

    as->memRead(cpu, va, bytes, mem::Pattern::Seq);
    EXPECT_EQ(system.metrics().counterValue("vm.faults"), 0u)
        << "daxvm mappings must never fault on reads";

    // Attachment cost is per 2 MB granule (or better), never per page.
    const std::uint64_t granules =
        (bytes + mem::kHugePageSize - 1) / mem::kHugePageSize;
    EXPECT_LT(mapCost, 2000 + granules * 1500)
        << "attach cost grew faster than granules";
}

INSTANTIATE_TEST_SUITE_P(Sizes, DaxVmSizeSweep,
                         ::testing::Values(4096, 65536, 1 << 20,
                                           2 << 20, 16 << 20, 64 << 20,
                                           256 << 20));

// ---------------------------------------------------------------------
// TLB vs reference map under random churn
// ---------------------------------------------------------------------

class TlbProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbProperty, NeverReturnsStaleOrWrongTranslation)
{
    sim::Rng rng(GetParam());
    arch::Tlb tlb(64, 4, 8);
    // Reference: what is *allowed* to be cached (va -> pa).
    std::map<std::uint64_t, std::uint64_t> valid;

    for (int op = 0; op < 5000; op++) {
        const std::uint64_t page = rng.below(256);
        const std::uint64_t va = page << 12;
        switch (rng.below(3)) {
          case 0: {
            arch::WalkResult w;
            w.present = true;
            w.paddr = (page * 7 + 13) << 12;
            w.pageShift = 12;
            w.writable = true;
            tlb.insert(va, 1, w);
            valid[va] = w.paddr;
            break;
          }
          case 1:
            tlb.invalidatePage(va, 1);
            valid.erase(va);
            break;
          default: {
            const auto *e = tlb.lookup(va, 1);
            if (e != nullptr) {
                auto it = valid.find(va);
                ASSERT_NE(it, valid.end())
                    << "stale TLB entry for va " << va;
                ASSERT_EQ(e->pbase, it->second);
            }
            break;
          }
        }
    }
    tlb.flushAsid(1);
    for (const auto &[va, pa] : valid) {
        (void)pa;
        ASSERT_EQ(tlb.lookup(va, 1), nullptr);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbProperty,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------
// Zipf skew sweep
// ---------------------------------------------------------------------

class ZipfProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfProperty, MassConcentratesWithTheta)
{
    sim::Rng rng(55);
    sim::Zipf zipf(10000, GetParam());
    std::uint64_t top = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        if (zipf.next(rng) < 1000)
            top++;
    }
    // More skew than uniform in every configuration.
    EXPECT_GT(top, n / 10 * 2);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfProperty,
                         ::testing::Values(0.5, 0.8, 0.99));
