/**
 * @file
 * Host-fast-path tests: the golden-equivalence proof that the walk
 * cache and VMA cache are observationally pure (bit-identical
 * simulated output with SystemConfig::hostFastPaths on vs off), unit
 * tests for every invalidation edge the caches depend on (munmap,
 * mprotect, attach/detach, fork-style table duplication, table
 * teardown/ASID reuse), and a randomized cross-check of the
 * open-addressed FlatHash64 against std::unordered_map.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/page_table.h"
#include "arch/pte.h"
#include "arch/tlb.h"
#include "mem/device.h"
#include "mem/frame_alloc.h"
#include "sim/flat_hash.h"
#include "sim/rng.h"
#include "sys/system.h"
#include "workloads/filesweep.h"
#include "workloads/repetitive.h"

using namespace dax;
using namespace dax::arch;

namespace {

sys::SystemConfig
smallConfig(bool fastPaths = true)
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    config.hostFastPaths = fastPaths;
    return config;
}

sim::Cpu
cpuOn(int core)
{
    return sim::Cpu(nullptr, core, core);
}

struct ArchFixture
{
    sim::CostModel cm;
    mem::Device dram{mem::Kind::Dram, 64ULL << 20, cm,
                     mem::Backing::Sparse};
    mem::Device pmemDev{mem::Kind::Pmem, 64ULL << 20, cm,
                        mem::Backing::Sparse};
    mem::FrameAllocator dramFrames{dram, 0, 64ULL << 20};
    mem::FrameAllocator pmemFrames{pmemDev, 0, 64ULL << 20};
};

sim::Time
runTasks(sys::System &system,
         std::vector<std::unique_ptr<sim::Task>> tasks)
{
    const sim::Time start = system.quiesceTime();
    int core = 0;
    for (auto &task : tasks) {
        system.engine().addThread(std::move(task), core, start);
        core = (core + 1) % static_cast<int>(system.engine().numCores());
    }
    const sim::Time makespan = system.engine().run();
    return makespan > start ? makespan - start : 0;
}

/**
 * One deterministic fig1a-shaped (read-once file sweep over mmap and
 * DaxVM-ephemeral) plus fig6-shaped (sequential synced writes over one
 * large mapping) run. Returns every observable the benches derive
 * their figures from - elapsed virtual times and the full metrics
 * snapshot - serialized to one string for byte comparison.
 */
std::string
goldenRun(bool fastPaths)
{
    sys::System system(smallConfig(fastPaths));
    std::string out;

    // fig1a shape: sweep a small file set through two interfaces.
    auto paths = wl::makeFileSet(system, "/sweep/", 16, 64 * 1024);
    for (const bool daxvm : {false, true}) {
        auto as = system.newProcess();
        wl::Filesweep::Config config;
        config.paths = paths;
        config.access.interface =
            daxvm ? wl::Interface::DaxVm : wl::Interface::Mmap;
        if (daxvm) {
            config.access.ephemeral = true;
            config.access.asyncUnmap = true;
        }
        std::vector<std::unique_ptr<sim::Task>> tasks;
        tasks.push_back(
            std::make_unique<wl::Filesweep>(system, *as, config));
        out += "sweep " + std::to_string(daxvm) + " elapsed "
             + std::to_string(runTasks(system, std::move(tasks)))
             + "\n";
    }

    // fig6 shape: sequential 1 KB synced writes on one mapped file.
    const fs::Ino ino = system.makeFile("/synced", 8ULL << 20);
    {
        auto as = system.newProcess();
        wl::Repetitive::Config config;
        config.ino = ino;
        config.fileBytes = 8ULL << 20;
        config.opBytes = 1024;
        config.write = true;
        config.ops = 2048;
        config.writesPerSync = 64;
        config.access.interface = wl::Interface::Mmap;
        std::vector<std::unique_ptr<sim::Task>> tasks;
        tasks.push_back(
            std::make_unique<wl::Repetitive>(system, *as, config));
        out += "sync elapsed "
             + std::to_string(runTasks(system, std::move(tasks)))
             + "\n";
    }

    out += system.snapshotMetrics().toJson().dump(2);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Golden equivalence: fast paths on vs off must be bit-identical.
// ---------------------------------------------------------------------

TEST(GoldenEquivalence, FastPathsAreObservationallyPure)
{
    const std::string fast = goldenRun(true);
    const std::string slow = goldenRun(false);
    EXPECT_EQ(fast, slow)
        << "host fast paths changed simulated output";
}

// ---------------------------------------------------------------------
// Walk-cache invalidation edges
// ---------------------------------------------------------------------

TEST(WalkCache, HitsAfterTlbInvalidateAndMatchesFullWalk)
{
    ArchFixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x1000, 0x5000, kPteLevel, pte::kWrite);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);

    const auto first = mmu.translate(cpu, pt, 0x1080, false, 1, perf);
    ASSERT_EQ(first.outcome, Mmu::Outcome::Ok);
    EXPECT_EQ(mmu.walkCache().hits(), 0u);
    EXPECT_EQ(mmu.walkCache().fills(), 1u);

    // Drop the TLB entry but not the walk cache: the repeat walk must
    // come from the cached path and agree with the full walk.
    mmu.tlb().invalidatePage(0x1000, 1);
    const auto second = mmu.translate(cpu, pt, 0x1080, false, 1, perf);
    EXPECT_EQ(second.outcome, Mmu::Outcome::Ok);
    EXPECT_EQ(second.paddr, first.paddr);
    EXPECT_EQ(mmu.walkCache().hits(), 1u);
}

TEST(WalkCache, MunmapStyleLeafClearIsVisibleWithoutInvalidation)
{
    ArchFixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x2000, 0x6000, kPteLevel, pte::kWrite);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    ASSERT_EQ(mmu.translate(cpu, pt, 0x2000, false, 1, perf).outcome,
              Mmu::Outcome::Ok);

    // munmap of a 4 KB page: leaf cleared, INVLPG sent. The walk cache
    // needs no invalidation because hits re-read the leaf PTE.
    pt.clear(0x2000, kPteLevel);
    mmu.tlb().invalidatePage(0x2000, 1);
    EXPECT_EQ(mmu.translate(cpu, pt, 0x2000, false, 1, perf).outcome,
              Mmu::Outcome::NotPresent);
}

TEST(WalkCache, MprotectStyleWriteBitDropIsVisible)
{
    ArchFixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x3000, 0x7000, kPteLevel, pte::kWrite);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    ASSERT_EQ(mmu.translate(cpu, pt, 0x3000, true, 1, perf).outcome,
              Mmu::Outcome::Ok);

    ASSERT_TRUE(pt.setFlags(0x3000, kPteLevel, 0, pte::kWrite));
    mmu.tlb().invalidatePage(0x3000, 1);
    EXPECT_EQ(mmu.translate(cpu, pt, 0x3000, true, 1, perf).outcome,
              Mmu::Outcome::ProtFault);
    EXPECT_EQ(mmu.translate(cpu, pt, 0x3000, false, 1, perf).outcome,
              Mmu::Outcome::Ok);
}

TEST(WalkCache, SharedAttachmentsAreNeverCachedAndDetachIsVisible)
{
    ArchFixture f;
    // A DaxVM-style file table in PMem whose PTE node gets attached
    // into the process tree at a PMD slot (2 MB granule).
    PageTable filePt(f.pmemFrames);
    filePt.map(0, 0x40000, kPteLevel, pte::kWrite);
    Node *fileNode = filePt.root()->child[0]->child[0]->child[0];
    ASSERT_NE(fileNode, nullptr);
    fileNode->shared = true; // owned by the file table, as in daxvm

    PageTable procPt(f.dramFrames);
    const std::uint64_t va = 2ULL << 20;
    const std::uint64_t gen0 = procPt.structureGen();
    ASSERT_GT(procPt.attach(va, kPmdLevel, fileNode, true), 0u);
    EXPECT_GT(procPt.structureGen(), gen0);

    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    ASSERT_EQ(mmu.translate(cpu, procPt, va, false, 1, perf).outcome,
              Mmu::Outcome::Ok);
    // The path runs through a shared node: it must never be cached,
    // because the file table's owner may restructure it underneath.
    EXPECT_EQ(mmu.walkCache().fills(), 0u);

    const std::uint64_t gen1 = procPt.structureGen();
    EXPECT_EQ(procPt.detach(va, kPmdLevel), fileNode);
    EXPECT_GT(procPt.structureGen(), gen1);
    mmu.tlb().invalidatePage(va, 1);
    EXPECT_EQ(mmu.translate(cpu, procPt, va, false, 1, perf).outcome,
              Mmu::Outcome::NotPresent);
    // No file-table owner frees the node here: hand it back to filePt.
    fileNode->shared = false;
}

TEST(WalkCache, ForkStyleTablesWithSameVaDoNotAlias)
{
    ArchFixture f;
    PageTable parent(f.dramFrames);
    PageTable child(f.dramFrames);
    const std::uint64_t va = 0x4000;
    parent.map(va, 0x10000, kPteLevel, pte::kWrite);
    child.map(va, 0x20000, kPteLevel, pte::kWrite);

    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    const auto p1 = mmu.translate(cpu, parent, va, false, 1, perf);
    const auto c1 = mmu.translate(cpu, child, va, false, 2, perf);
    ASSERT_EQ(p1.outcome, Mmu::Outcome::Ok);
    ASSERT_EQ(c1.outcome, Mmu::Outcome::Ok);
    EXPECT_NE(p1.paddr, c1.paddr);

    // Both tables share the direct-mapped slot for this va; the table
    // uid must keep the entries apart on re-walk.
    mmu.tlb().invalidatePage(va, 1);
    mmu.tlb().invalidatePage(va, 2);
    EXPECT_EQ(mmu.translate(cpu, parent, va, false, 1, perf).paddr,
              p1.paddr);
    EXPECT_EQ(mmu.translate(cpu, child, va, false, 2, perf).paddr,
              c1.paddr);
}

TEST(WalkCache, TableTeardownNeverLeaksStaleEntries)
{
    ArchFixture f;
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    const std::uint64_t va = 0x5000;

    auto pt1 = std::make_unique<PageTable>(f.dramFrames);
    pt1->map(va, 0x30000, kPteLevel, pte::kWrite);
    ASSERT_EQ(mmu.translate(cpu, *pt1, va, false, 1, perf).paddr,
              0x30000u);
    // ASID teardown: the process dies, its table is destroyed, and a
    // new process (new table, quite possibly at the same heap address)
    // reuses the va. The uid tag must prevent a stale cache hit.
    pt1.reset();
    auto pt2 = std::make_unique<PageTable>(f.dramFrames);
    pt2->map(va, 0x31000, kPteLevel, pte::kWrite);
    mmu.tlb().flush();
    EXPECT_EQ(mmu.translate(cpu, *pt2, va, false, 2, perf).paddr,
              0x31000u);
}

// ---------------------------------------------------------------------
// VMA-cache invalidation edges
// ---------------------------------------------------------------------

TEST(VmaCache, HitsAccumulateAndMunmapInvalidates)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/v", 1ULL << 20);
    auto as = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 1ULL << 20, true, 0);
    ASSERT_NE(va, 0u);

    as->memRead(cpu, va, 64, mem::Pattern::Seq);
    as->memRead(cpu, va + 4096, 64, mem::Pattern::Seq);
    EXPECT_GT(as->vmaCacheHits(), 0u);

    const std::uint64_t gen = as->vmaGeneration();
    ASSERT_TRUE(as->munmap(cpu, va, 1ULL << 20));
    EXPECT_GT(as->vmaGeneration(), gen);
    EXPECT_EQ(as->findVma(va), nullptr);
}

TEST(VmaCache, MprotectSplitKeepsLookupsCorrect)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/m", 4 * 4096);
    auto as = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 4 * 4096, true, 0);
    ASSERT_NE(va, 0u);
    as->memRead(cpu, va, 64, mem::Pattern::Seq); // warm the cache

    // Split the VMA in three; the cached pointer from before the split
    // must not be served for any of the new pieces.
    ASSERT_TRUE(as->mprotect(cpu, va + 4096, 4096, false));
    const vm::Vma *left = as->findVma(va);
    const vm::Vma *mid = as->findVma(va + 4096);
    const vm::Vma *right = as->findVma(va + 2 * 4096);
    ASSERT_NE(left, nullptr);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(right, nullptr);
    EXPECT_NE(left, mid);
    EXPECT_NE(mid, right);
    EXPECT_TRUE(left->contains(va));
    EXPECT_TRUE(mid->contains(va + 4096));
    EXPECT_FALSE(mid->writable);
    EXPECT_TRUE(right->contains(va + 2 * 4096));
}

TEST(VmaCache, ForkedSpacesAreIndependent)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/f", 1ULL << 20);
    auto parent = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va =
        parent->mmap(cpu, ino, 0, 1ULL << 20, false, 0);
    ASSERT_NE(va, 0u);
    parent->memRead(cpu, va, 64, mem::Pattern::Seq); // warm the cache

    auto child = parent->fork(cpu);
    ASSERT_NE(child, nullptr);
    ASSERT_NE(child->findVma(va), nullptr);
    // Unmapping in the parent must not disturb the child's lookups.
    ASSERT_TRUE(parent->munmap(cpu, va, 1ULL << 20));
    EXPECT_EQ(parent->findVma(va), nullptr);
    ASSERT_NE(child->findVma(va), nullptr);
    child->memRead(cpu, va, 64, mem::Pattern::Seq);
}

TEST(VmaCache, MremapMoveInvalidates)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/r", 1ULL << 20);
    auto as = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 2 * 4096, true, 0);
    ASSERT_NE(va, 0u);
    as->memRead(cpu, va, 64, mem::Pattern::Seq); // warm the cache

    const std::uint64_t newVa =
        as->mremap(cpu, va, 2 * 4096, 8 * 4096);
    ASSERT_NE(newVa, 0u);
    const vm::Vma *vma = as->findVma(newVa);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(vma->contains(newVa + 7 * 4096));
    if (newVa != va) {
        EXPECT_EQ(as->findVma(va), nullptr);
    }
}

// ---------------------------------------------------------------------
// FlatHash64 vs std::unordered_map
// ---------------------------------------------------------------------

TEST(FlatHash, RandomizedCrossCheck)
{
    sim::FlatHash64<std::uint64_t> fh;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    sim::Rng rng(2026);

    // A small key domain forces constant insert/erase collisions, the
    // worst case for backshift deletion bugs.
    for (int i = 0; i < 200000; i++) {
        const std::uint64_t key = rng.next() % 512;
        switch (rng.next() % 3) {
          case 0: {
            const std::uint64_t val = rng.next();
            fh[key] = val;
            ref[key] = val;
            break;
          }
          case 1:
            fh.erase(key);
            ref.erase(key);
            break;
          default: {
            const std::uint64_t *got = fh.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second) << "key " << key;
            }
            break;
          }
        }
    }

    ASSERT_EQ(fh.size(), ref.size());
    std::uint64_t seen = 0;
    fh.forEach([&](std::uint64_t key, const std::uint64_t &val) {
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(val, it->second);
        seen++;
    });
    EXPECT_EQ(seen, ref.size());
}
