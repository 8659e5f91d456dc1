/**
 * @file
 * Unit tests for the file-system layer: extent allocator, journal,
 * ext4-DAX vs NOVA personalities, VFS inode cache, aging.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fs/aging.h"
#include "fs/block_alloc.h"
#include "fs/file_system.h"
#include "fs/vfs.h"
#include "mem/device.h"
#include "sim/fault.h"
#include "sim/rng.h"

using namespace dax;
using namespace dax::fs;

namespace {

struct Fixture
{
    explicit Fixture(Personality personality = Personality::Ext4Dax,
                     std::uint64_t bytes = 256ULL << 20)
        : pmem(mem::Kind::Pmem, bytes, cm, mem::Backing::Sparse),
          fs(personality, pmem, 0, bytes, cm)
    {}

    sim::CostModel cm;
    mem::Device pmem;
    FileSystem fs;
    sim::Cpu cpu{nullptr, 0, 0};
};

} // namespace

// ---------------------------------------------------------------------
// BlockAllocator
// ---------------------------------------------------------------------

TEST(BlockAllocator, ContiguousWhenFresh)
{
    BlockAllocator alloc(1024, 0);
    auto got = alloc.alloc(100, 0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].count, 100u);
    EXPECT_EQ(alloc.freeBlocks(), 924u);
}

TEST(BlockAllocator, FreeCoalesces)
{
    BlockAllocator alloc(1024, 0);
    auto a = alloc.alloc(100, 0);
    auto b = alloc.alloc(100, 0);
    alloc.free(a[0]);
    alloc.free(b[0]);
    EXPECT_EQ(alloc.freeExtents(), 1u);
    EXPECT_EQ(alloc.freeBlocks(), 1024u);
    EXPECT_EQ(alloc.largestFreeExtent(), 1024u);
}

TEST(BlockAllocator, FragmentationForcesMultipleExtents)
{
    BlockAllocator alloc(1000, 0);
    // Carve ten 100-block extents, free every other one.
    std::vector<Extent> held;
    for (int i = 0; i < 10; i++)
        held.push_back(alloc.alloc(100, 0)[0]);
    for (int i = 0; i < 10; i += 2)
        alloc.free(held[static_cast<unsigned>(i)]);
    auto got = alloc.alloc(250, 0);
    std::uint64_t total = 0;
    for (const auto &e : got)
        total += e.count;
    EXPECT_EQ(total, 250u);
    EXPECT_GE(got.size(), 3u); // had to gather fragments
}

TEST(BlockAllocator, EnospcReturnsEmptyAndRollsBack)
{
    BlockAllocator alloc(100, 0);
    const auto before = alloc.freeBlocks();
    auto got = alloc.alloc(101, 0);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(alloc.freeBlocks(), before);
}

TEST(BlockAllocator, DoubleFreeThrows)
{
    BlockAllocator alloc(100, 0);
    auto got = alloc.alloc(10, 0);
    alloc.free(got[0]);
    EXPECT_THROW(alloc.free(got[0]), std::logic_error);
}

TEST(BlockAllocator, OverlappingFreeThrows)
{
    // Regression: only a free starting exactly at a free run's start
    // was caught; overlapping either end of the run was accepted and
    // double-counted the shared blocks.
    BlockAllocator alloc(1024, 0);
    alloc.alloc(100, 0);
    alloc.free({10, 10});
    const auto before = alloc.freeBlocks();
    EXPECT_THROW(alloc.free({15, 10}), std::logic_error); // run's tail
    EXPECT_THROW(alloc.free({5, 10}), std::logic_error);  // run's head
    EXPECT_EQ(alloc.freeBlocks(), before);
    EXPECT_TRUE(alloc.check().empty());
}

TEST(BlockAllocator, HugeAlignedPreferenceAlignsLargeFiles)
{
    BlockAllocator alloc(4096, 0);
    alloc.alloc(3, 0); // misalign the frontier
    auto got = alloc.alloc(1024, 0, nullptr, /*preferHugeAligned=*/true);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].block % kBlocksPerHuge, 0u);
}

TEST(BlockAllocator, ZeroedPoolPreferred)
{
    BlockAllocator alloc(1024, 0);
    auto got = alloc.alloc(64, 0);
    alloc.free(got[0]); // no sink: back to the free map
    // Simulate the daemon: move 64 blocks to the zeroed pool.
    auto raw = alloc.alloc(64, 0);
    alloc.freeZeroed(raw[0]);
    std::vector<bool> zeroed;
    auto z = alloc.alloc(32, 0, &zeroed);
    ASSERT_EQ(z.size(), 1u);
    ASSERT_EQ(zeroed.size(), 1u);
    EXPECT_TRUE(zeroed[0]);
    EXPECT_EQ(alloc.zeroedBlocks(), 32u);
}

TEST(BlockAllocator, HugeAlignedFreeFractionDegrades)
{
    BlockAllocator alloc(8192, 0);
    EXPECT_NEAR(alloc.hugeAlignedFreeFraction(), 1.0, 0.15);
    // Punch small holes everywhere.
    std::vector<Extent> held;
    for (int i = 0; i < 50; i++)
        held.push_back(alloc.alloc(130, 0)[0]);
    for (std::size_t i = 0; i < held.size(); i += 2)
        alloc.free(held[i]);
    EXPECT_LT(alloc.hugeAlignedFreeFraction(), 0.9);
}

TEST(BlockAllocator, RebuildRoundTrips)
{
    BlockAllocator alloc(4096, 0);
    sim::Rng rng(99);
    std::vector<Extent> held;
    for (int i = 0; i < 60; i++) {
        auto got = alloc.alloc(1 + rng.below(96), rng.below(4096));
        for (const auto &e : got)
            held.push_back(e);
    }
    for (std::size_t i = 0; i < held.size(); i += 3) {
        alloc.free(held[i]);
        held[i] = held.back();
        held.pop_back();
    }
    std::uint64_t allocated = 0;
    for (const auto &e : held)
        allocated += e.count;

    // Rebuild from the committed extents: everything else free.
    EXPECT_EQ(alloc.rebuildFrom(held), 0u);
    EXPECT_EQ(alloc.freeBlocks(), 4096u - allocated);
    EXPECT_TRUE(alloc.check().empty());

    // The free map must be exactly the complement of `held`.
    for (const auto &e : held) {
        auto again = alloc.alloc(e.count, e.block);
        bool overlaps = false;
        for (const auto &g : again)
            overlaps = overlaps
                       || (g.block < e.block + e.count
                           && e.block < g.block + g.count);
        EXPECT_FALSE(overlaps)
            << "rebuild left a committed extent allocatable";
        for (const auto &g : again)
            alloc.free(g);
    }

    // Retired extents leave the population permanently.
    const Extent bad{held[0].block, held[0].count};
    alloc.rebuildRetired({bad});
    EXPECT_EQ(alloc.retiredBlocks(), bad.count);
    EXPECT_TRUE(alloc.check().empty());
}

// ---------------------------------------------------------------------
// FileSystem
// ---------------------------------------------------------------------

TEST(FileSystem, CreateLookupUnlink)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/a");
    EXPECT_EQ(f.fs.lookupPath("/a"), std::optional<Ino>(ino));
    EXPECT_TRUE(f.fs.unlink(f.cpu, "/a"));
    EXPECT_FALSE(f.fs.lookupPath("/a").has_value());
    EXPECT_FALSE(f.fs.unlink(f.cpu, "/a"));
}

TEST(FileSystem, DuplicateCreateThrows)
{
    Fixture f;
    f.fs.create(f.cpu, "/a");
    EXPECT_THROW(f.fs.create(f.cpu, "/a"), std::invalid_argument);
}

TEST(FileSystem, WriteReadRoundTrip)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/data");
    std::vector<std::uint8_t> in(10000);
    for (std::size_t i = 0; i < in.size(); i++)
        in[i] = static_cast<std::uint8_t>(i * 7);
    EXPECT_EQ(f.fs.write(f.cpu, ino, 0, in.data(), in.size()),
              in.size());
    EXPECT_EQ(f.fs.inode(ino).size, in.size());
    std::vector<std::uint8_t> out(in.size());
    EXPECT_EQ(f.fs.read(f.cpu, ino, 0, out.data(), out.size()),
              out.size());
    EXPECT_EQ(in, out);
}

TEST(FileSystem, WriteAtOffsetExtends)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/data");
    f.fs.fallocate(f.cpu, ino, 0, 8192);
    const char msg[] = "hello";
    f.fs.write(f.cpu, ino, 8000, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    f.fs.read(f.cpu, ino, 8000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(FileSystem, ReadBeyondEofTruncated)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/data");
    f.fs.write(f.cpu, ino, 0, nullptr, 1000);
    std::uint8_t buf[2000];
    EXPECT_EQ(f.fs.read(f.cpu, ino, 500, buf, 2000), 500u);
    EXPECT_EQ(f.fs.read(f.cpu, ino, 1000, buf, 10), 0u);
}

TEST(FileSystem, FallocateZeroesRecycledBlocks)
{
    Fixture f;
    // Dirty some blocks then free them (simulating a deleted file).
    const Ino other = f.fs.create(f.cpu, "/tmp");
    std::vector<std::uint8_t> junk(16384, 0xAB);
    f.fs.write(f.cpu, other, 0, junk.data(), junk.size());
    f.fs.unlink(f.cpu, "/tmp");
    // Now fallocate over the recycled blocks: must read back zero.
    const Ino ino = f.fs.create(f.cpu, "/sec");
    ASSERT_TRUE(f.fs.fallocate(f.cpu, ino, 0, 16384));
    const Inode &node = f.fs.inode(ino);
    for (const auto &[fb, e] : node.extents) {
        (void)fb;
        EXPECT_TRUE(f.pmem.isZero(f.fs.blockAddr(e.block), e.bytes()));
    }
}

TEST(FileSystem, Ext4ZeroesOnWriteSyscallNovaDoesNot)
{
    Fixture ext4(Personality::Ext4Dax);
    Fixture nova(Personality::Nova);
    const Ino a = ext4.fs.create(ext4.cpu, "/f");
    const Ino b = nova.fs.create(nova.cpu, "/f");
    ext4.fs.write(ext4.cpu, a, 0, nullptr, 1 << 20);
    nova.fs.write(nova.cpu, b, 0, nullptr, 1 << 20);
    EXPECT_GT(ext4.fs.metricsRegistry().counterValue("fs.zeroed_blocks"), 0u);
    EXPECT_EQ(nova.fs.metricsRegistry().counterValue("fs.zeroed_blocks"), 0u);
}

TEST(FileSystem, TruncateFreesBlocks)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/t");
    f.fs.fallocate(f.cpu, ino, 0, 1 << 20);
    const auto freeBefore = f.fs.allocator().freeBlocks();
    f.fs.ftruncate(f.cpu, ino, 4096);
    EXPECT_EQ(f.fs.allocator().freeBlocks(),
              freeBefore + (1 << 20) / kBlockSize - 1);
    EXPECT_EQ(f.fs.inode(ino).size, 4096u);
    EXPECT_EQ(f.fs.inode(ino).allocatedBlocks(), 1u);
}

TEST(FileSystem, JournalCommitOnFsync)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/j");
    f.fs.fallocate(f.cpu, ino, 0, 4096);
    EXPECT_TRUE(f.fs.journal().isDirty(ino));
    f.fs.fsync(f.cpu, ino);
    EXPECT_FALSE(f.fs.journal().isDirty(ino));
    const auto commits = f.fs.journal().commits();
    f.fs.fsync(f.cpu, ino); // clean: no extra commit
    EXPECT_EQ(f.fs.journal().commits(), commits);
}

TEST(FileSystem, NovaCommitCheaperThanExt4)
{
    Fixture ext4(Personality::Ext4Dax);
    Fixture nova(Personality::Nova);
    const Ino a = ext4.fs.create(ext4.cpu, "/f");
    const Ino b = nova.fs.create(nova.cpu, "/f");
    sim::Cpu c1(nullptr, 0, 0), c2(nullptr, 0, 0);
    ext4.fs.journal().commit(c1, a);
    nova.fs.journal().commit(c2, b);
    EXPECT_GT(c1.now(), c2.now() * 5);
}

TEST(FileSystem, ExtentMergingKeepsTreeSmall)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/seq");
    // Sequential appends on a fresh image: extents merge into one.
    for (int i = 0; i < 16; i++)
        f.fs.write(f.cpu, ino, static_cast<std::uint64_t>(i) * 4096,
                   nullptr, 4096);
    EXPECT_EQ(f.fs.inode(ino).extents.size(), 1u);
}

TEST(FileSystem, ListByPrefix)
{
    Fixture f;
    f.fs.create(f.cpu, "/web/a");
    f.fs.create(f.cpu, "/web/b");
    f.fs.create(f.cpu, "/other/c");
    EXPECT_EQ(f.fs.list("/web/").size(), 2u);
    EXPECT_EQ(f.fs.list("/").size(), 3u);
    EXPECT_TRUE(f.fs.list("/nope/").empty());
}

TEST(FileSystem, InodeFindResolvesRuns)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/r");
    f.fs.fallocate(f.cpu, ino, 0, 64 * 4096);
    const Inode &node = f.fs.inode(ino);
    const auto run = node.find(10);
    ASSERT_TRUE(run.has_value());
    EXPECT_GE(run->count, 1u);
    EXPECT_FALSE(node.find(64).has_value());
}

TEST(FileSystem, UnlinkByInode)
{
    Fixture f;
    const Ino a = f.fs.create(f.cpu, "/a");
    ASSERT_TRUE(f.fs.fallocateSetup(a, 8 * kBlockSize));
    const std::uint64_t freeBefore = f.fs.allocator().freeBlocks();
    EXPECT_TRUE(f.fs.unlink(f.cpu, a));
    EXPECT_FALSE(f.fs.exists(a));
    EXPECT_FALSE(f.fs.lookupPath("/a").has_value());
    EXPECT_EQ(f.fs.allocator().freeBlocks(), freeBefore + 8);
    EXPECT_FALSE(f.fs.unlink(f.cpu, a));
    EXPECT_FALSE(f.fs.unlink(f.cpu, Ino{12345}));
    // The name is free again; the Ino is not reused.
    EXPECT_GT(f.fs.create(f.cpu, "/a"), a);
    EXPECT_TRUE(f.fs.fsck().empty());
}

namespace {

/**
 * One seeded run of create / unlink(path) / unlink(ino) / fsync /
 * recover() against a std::map model of the namespace, checking every
 * lookup path after each step.
 */
void
runNamespaceModel(Personality personality, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << (personality == Personality::Ext4Dax ? "ext4"
                                                         : "nova")
                 << " seed " << seed);
    Fixture f(personality, 64ULL << 20);
    sim::Rng rng(seed);
    std::map<std::string, Ino> live;
    std::set<std::string> durable; // committed, survives recover()
    std::vector<Ino> dead;
    Ino next = 1;
    std::uint64_t serial = 0;

    auto pickLive = [&]() {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.below(live.size())));
        return *it;
    };

    for (int step = 0; step < 400; step++) {
        const std::uint64_t op = rng.below(100);
        if (op < 45 || live.empty()) {
            // Two directories, names of varying length, so prefix
            // listing has to filter and sort.
            const std::string path = (rng.below(3) == 0 ? "/n/" : "/m/")
                                   + std::to_string(serial++ * 7919 % 1000);
            if (live.count(path) != 0) {
                EXPECT_THROW(f.fs.create(f.cpu, path),
                             std::invalid_argument);
                continue;
            }
            const Ino ino = f.fs.create(f.cpu, path);
            ASSERT_EQ(ino, next);
            next++;
            if (rng.below(2) == 0) {
                ASSERT_TRUE(f.fs.fallocateSetup(
                    ino, (1 + rng.below(4)) * kBlockSize));
            }
            live.emplace(path, ino);
        } else if (op < 60) {
            const auto [path, ino] = pickLive();
            ASSERT_TRUE(f.fs.unlink(f.cpu, path));
            live.erase(path);
            durable.erase(path);
            dead.push_back(ino);
        } else if (op < 75) {
            const auto [path, ino] = pickLive();
            ASSERT_TRUE(f.fs.unlink(f.cpu, ino));
            live.erase(path);
            durable.erase(path);
            dead.push_back(ino);
        } else if (op < 95) {
            const auto [path, ino] = pickLive();
            f.fs.fsync(f.cpu, ino);
            if (personality == Personality::Ext4Dax) {
                // fsync forces the whole running transaction out.
                for (const auto &[p, i] : live) {
                    (void)i;
                    durable.insert(p);
                }
            } else {
                durable.insert(path);
            }
        } else {
            const std::size_t dirty = f.fs.journal().dirtyCount();
            const RecoveryReport report = f.fs.recover();
            EXPECT_EQ(report.rolledBack, dirty);
            EXPECT_EQ(report.rolledBack, live.size() - durable.size());
            EXPECT_EQ(report.inodesRestored, durable.size());
            for (auto it = live.begin(); it != live.end();) {
                if (durable.count(it->first) == 0) {
                    dead.push_back(it->second);
                    it = live.erase(it);
                } else {
                    ++it;
                }
            }
            EXPECT_EQ(f.fs.journal().dirtyCount(), 0u);
        }

        // Every live file resolves both ways; dirty == not durable.
        for (const auto &[path, ino] : live) {
            ASSERT_EQ(f.fs.lookupPath(path), std::optional<Ino>(ino));
            ASSERT_TRUE(f.fs.exists(ino));
            ASSERT_EQ(f.fs.inode(ino).path, path);
            ASSERT_EQ(f.fs.journal().isDirty(ino),
                      durable.count(path) == 0);
        }
        for (const Ino ino : dead) {
            ASSERT_FALSE(f.fs.exists(ino));
            ASSERT_THROW(f.fs.inode(ino), std::invalid_argument);
            ASSERT_FALSE(f.fs.journal().isDirty(ino));
        }
        EXPECT_FALSE(f.fs.lookupPath("/m/missing").has_value());
        EXPECT_EQ(f.fs.journal().dirtyCount(),
                  live.size() - durable.size());
        for (const std::string prefix : {"/", "/m/", "/n/", "/m/1"}) {
            std::vector<std::string> want;
            for (const auto &[path, ino] : live) {
                (void)ino;
                if (path.compare(0, prefix.size(), prefix) == 0)
                    want.push_back(path);
            }
            ASSERT_EQ(f.fs.list(prefix), want) << prefix;
        }
        ASSERT_EQ(f.fs.fsck(), std::vector<std::string>{});
    }

    // Recovery keeps the Ino counter: no restored or new Ino collides.
    f.fs.recover();
    EXPECT_EQ(f.fs.create(f.cpu, "/after-recover"), next);
}

} // namespace

TEST(FileSystem, NamespaceMatchesModel)
{
    for (const Personality personality :
         {Personality::Ext4Dax, Personality::Nova}) {
        for (const std::uint64_t seed : {1u, 2u, 424242u})
            runNamespaceModel(personality, seed);
    }
}

TEST(FileSystem, FsckReportsNamespaceMismatch)
{
    Fixture f;
    const Ino a = f.fs.create(f.cpu, "/a");
    f.fs.inode(a).path = "/b";
    const auto problems = f.fs.fsck();
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_EQ(problems[0], "name '/a' -> inode 1 with path '/b'");
    EXPECT_EQ(problems[1], "inode 1 not reachable via its path");
}

// ---------------------------------------------------------------------
// Journal commit order
// ---------------------------------------------------------------------

namespace {

/**
 * A journal whose resolver records every snapshot, with the dirty set
 * built out of order: marks, a duplicate mark, an erase (commitErase)
 * and a re-mark of the erased Ino. Leaves {1, 3, 7, 9, 12} dirty.
 */
struct OrderFixture
{
    explicit OrderFixture(Personality personality)
        : journal(personality, cm)
    {
        journal.setResolver([this](Ino ino) -> const Inode * {
            snapshots.push_back(ino);
            return &node;
        });
        for (const Ino ino : {Ino{9}, Ino{3}, Ino{7}, Ino{3}})
            journal.markDirty(ino);
        journal.commitErase(cpu, 7);
        for (const Ino ino : {Ino{7}, Ino{12}, Ino{1}})
            journal.markDirty(ino);
    }

    std::vector<Ino> committedInos() const
    {
        std::vector<Ino> out;
        for (const auto &[ino, rec] : journal.committedImage()) {
            (void)rec;
            out.push_back(ino);
        }
        return out;
    }

    sim::CostModel cm;
    Journal journal;
    Inode node;
    sim::Cpu cpu{nullptr, 0, 0};
    std::vector<Ino> snapshots;
};

const std::vector<Ino> kOrderedDirty = {1, 3, 7, 9, 12};

} // namespace

TEST(JournalOrder, Ext4CommitSnapshotsEachDirtyInodeOnceAscending)
{
    OrderFixture f(Personality::Ext4Dax);
    ASSERT_EQ(f.journal.dirtyCount(), kOrderedDirty.size());
    f.journal.commit(f.cpu, 99); // clean ino: the transaction still goes
    EXPECT_EQ(f.snapshots, kOrderedDirty);
    EXPECT_EQ(f.journal.dirtyCount(), 0u);
    EXPECT_EQ(f.journal.commits(), 2u); // the erase + one transaction
}

TEST(JournalOrder, Ext4CommitAllSnapshotsEachDirtyInodeOnceAscending)
{
    OrderFixture f(Personality::Ext4Dax);
    f.journal.commitAll(f.cpu);
    EXPECT_EQ(f.snapshots, kOrderedDirty);
    EXPECT_EQ(f.journal.dirtyCount(), 0u);
    EXPECT_EQ(f.journal.batchedInodes(), kOrderedDirty.size());
}

TEST(JournalOrder, NovaCommitAllFiresOneEventPerInodeAscending)
{
    {
        OrderFixture f(Personality::Nova);
        sim::FaultPlan counting;
        f.journal.setFaultPlan(&counting);
        f.journal.commitAll(f.cpu);
        EXPECT_EQ(counting.eventsSeen(sim::FaultEvent::NovaCommit),
                  kOrderedDirty.size());
        EXPECT_EQ(f.snapshots, kOrderedDirty);
        EXPECT_EQ(f.committedInos(), kOrderedDirty);
        EXPECT_EQ(f.journal.dirtyCount(), 0u);
    }
    // Crashing at the k'th commit event leaves exactly the k lowest
    // Inos durable: events fire in ascending Ino order, each before
    // its own snapshot. The interrupted batch stays dirty.
    for (std::uint64_t k = 0; k < kOrderedDirty.size(); k++) {
        OrderFixture f(Personality::Nova);
        sim::FaultPlan plan =
            sim::FaultPlan::atKind(sim::FaultEvent::NovaCommit, k);
        f.journal.setFaultPlan(&plan);
        EXPECT_THROW(f.journal.commitAll(f.cpu), sim::CrashException);
        EXPECT_EQ(f.committedInos(),
                  std::vector<Ino>(kOrderedDirty.begin(),
                                   kOrderedDirty.begin()
                                       + static_cast<long>(k)));
        EXPECT_EQ(f.journal.dirtyCount(), kOrderedDirty.size());
    }
}

TEST(JournalOrder, DirtyListCompactsWithoutLosingFlags)
{
    // Many clears of a large dirty set: the count and every flag stay
    // exact through compaction, and a later batch is still ascending.
    OrderFixture f(Personality::Nova);
    for (Ino ino = 100; ino < 1100; ino++)
        f.journal.markDirty(ino);
    for (Ino ino = 1099; ino >= 150; ino--)
        f.journal.commit(f.cpu, ino);
    f.journal.markDirty(1050);
    ASSERT_EQ(f.journal.dirtyCount(), kOrderedDirty.size() + 51);
    for (Ino ino = 100; ino < 1100; ino++)
        ASSERT_EQ(f.journal.isDirty(ino), ino < 150 || ino == 1050) << ino;
    f.snapshots.clear();
    f.journal.commitAll(f.cpu);
    EXPECT_TRUE(std::is_sorted(f.snapshots.begin(), f.snapshots.end()));
    EXPECT_EQ(f.snapshots.size(), kOrderedDirty.size() + 51);
    EXPECT_EQ(f.journal.dirtyCount(), 0u);
}

// ---------------------------------------------------------------------
// VFS
// ---------------------------------------------------------------------

TEST(Vfs, ColdThenWarmOpen)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 16);
    f.fs.create(f.cpu, "/x");
    auto first = vfs.open(f.cpu, "/x");
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->cold);
    vfs.close(f.cpu, first->ino);
    auto second = vfs.open(f.cpu, "/x");
    EXPECT_FALSE(second->cold);
    vfs.close(f.cpu, second->ino);
    EXPECT_EQ(vfs.coldOpens(), 1u);
    EXPECT_EQ(vfs.warmOpens(), 1u);
}

TEST(Vfs, ColdOpenCostsMore)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 16);
    f.fs.create(f.cpu, "/x");
    sim::Cpu cold(nullptr, 0, 0), warm(nullptr, 0, 0);
    vfs.open(cold, "/x");
    vfs.close(cold, *f.fs.lookupPath("/x"));
    vfs.open(warm, "/x");
    EXPECT_GT(cold.now(), warm.now());
}

TEST(Vfs, CapacityEvictsLruUnpinned)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 2);
    for (const char *p : {"/a", "/b", "/c"})
        f.fs.create(f.cpu, p);
    auto a = vfs.open(f.cpu, "/a");
    vfs.close(f.cpu, a->ino);
    auto b = vfs.open(f.cpu, "/b");
    vfs.close(f.cpu, b->ino);
    auto c = vfs.open(f.cpu, "/c"); // evicts /a (LRU)
    vfs.close(f.cpu, c->ino);
    EXPECT_FALSE(vfs.isCached(a->ino));
    EXPECT_TRUE(vfs.isCached(b->ino));
    EXPECT_TRUE(vfs.isCached(c->ino));
}

TEST(Vfs, PinnedInodesNotEvicted)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 1);
    f.fs.create(f.cpu, "/a");
    f.fs.create(f.cpu, "/b");
    auto a = vfs.open(f.cpu, "/a"); // pinned (not closed)
    auto b = vfs.open(f.cpu, "/b");
    EXPECT_TRUE(vfs.isCached(a->ino));
    vfs.close(f.cpu, a->ino);
    vfs.close(f.cpu, b->ino);
}

TEST(Vfs, OpenMissingReturnsNullopt)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 4);
    EXPECT_FALSE(vfs.open(f.cpu, "/missing").has_value());
}

TEST(Vfs, DropCachesEvictsEverythingUnpinned)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 0);
    f.fs.create(f.cpu, "/a");
    auto a = vfs.open(f.cpu, "/a");
    vfs.close(f.cpu, a->ino);
    EXPECT_EQ(vfs.cachedCount(), 1u);
    vfs.dropCaches();
    EXPECT_EQ(vfs.cachedCount(), 0u);
}

// ---------------------------------------------------------------------
// Aging
// ---------------------------------------------------------------------

TEST(Aging, AgrawalSizesInRange)
{
    sim::Rng rng(5);
    for (int i = 0; i < 10000; i++) {
        const auto s = drawAgrawalSize(rng);
        ASSERT_GE(s, 1024u);
        ASSERT_LE(s, 64ULL << 20);
    }
}

TEST(Aging, FragmentsTheImage)
{
    Fixture f(Personality::Ext4Dax, 512ULL << 20);
    AgingConfig config;
    config.churnFactor = 4.0;
    const AgingReport report = ageFileSystem(f.fs, config);
    EXPECT_GT(report.filesCreated, 100u);
    EXPECT_GT(report.filesDeleted, 50u);
    EXPECT_NEAR(report.utilization, 0.70, 0.12);
    EXPECT_GT(report.freeExtents, 10u);
    // Aged images lose most aligned-2MB free space.
    EXPECT_LT(report.hugeAlignedFreeFraction, 0.9);
}

TEST(Aging, DeterministicForSeed)
{
    Fixture a(Personality::Ext4Dax, 256ULL << 20);
    Fixture b(Personality::Ext4Dax, 256ULL << 20);
    AgingConfig config;
    config.churnFactor = 2.0;
    const auto ra = ageFileSystem(a.fs, config);
    const auto rb = ageFileSystem(b.fs, config);
    EXPECT_EQ(ra.filesCreated, rb.filesCreated);
    EXPECT_EQ(ra.freeExtents, rb.freeExtents);
}

TEST(Aging, ChurnProfileChangesTheSizeDistribution)
{
    sim::Rng rng(5);
    AgingConfig big;
    big.sizeMedianLog2 = 20.0; // 1 MB median
    big.sizeMinLog2 = 14.0;
    big.sizeSigmaLog2 = 1.0;
    std::uint64_t bigTotal = 0;
    std::uint64_t defTotal = 0;
    for (int i = 0; i < 1000; i++) {
        bigTotal += drawAgrawalSize(rng, big);
        defTotal += drawAgrawalSize(rng);
        ASSERT_GE(drawAgrawalSize(rng, big), 1ULL << 14);
    }
    EXPECT_GT(bigTotal, 10 * defTotal);
}

TEST(Aging, PinnedSeedProfileIsBitStable)
{
    // Frozen residue of one churn profile: any change to the size
    // draw, watermark arithmetic, or allocator placement shows up here
    // as a changed count. Values harvested from the current
    // implementation.
    AgingConfig config;
    config.seed = 7;
    config.churnFactor = 2.0;
    config.sizeMedianLog2 = 13.0;
    config.sizeSigmaLog2 = 2.0;
    config.highWaterDelta = 0.10;
    config.lowWaterDelta = 0.10;

    sim::CostModel cm;
    mem::Device pmem(mem::Kind::Pmem, 256ULL << 20, cm,
                     mem::Backing::Sparse);
    FileSystem fs(Personality::Ext4Dax, pmem, 0, 256ULL << 20, cm);
    const AgingReport r = ageFileSystem(fs, config);
    EXPECT_EQ(r.filesCreated, 24688u);
    EXPECT_EQ(r.filesDeleted, 17045u);
    EXPECT_EQ(r.freeExtents, 1187u);
}

TEST(FileSystem, WriteAndFallocateEnospc)
{
    // Tiny image: writes past capacity fail cleanly.
    Fixture f(Personality::Ext4Dax, 1ULL << 20); // 256 blocks
    const Ino ino = f.fs.create(f.cpu, "/big");
    EXPECT_EQ(f.fs.write(f.cpu, ino, 0, nullptr, 2ULL << 20), 0u);
    EXPECT_FALSE(f.fs.fallocate(f.cpu, ino, 0, 2ULL << 20));
    // The file is untouched and smaller requests still succeed.
    EXPECT_EQ(f.fs.inode(ino).size, 0u);
    EXPECT_TRUE(f.fs.fallocate(f.cpu, ino, 0, 64 * 1024));
}

TEST(FileSystem, NovaMapSyncCommitIsCheapEnoughToIgnore)
{
    // The NOVA personality's commit must be under 1 us so MAP_SYNC
    // faults stay cheap (paper Section V-C2).
    Fixture nova(Personality::Nova);
    const Ino ino = nova.fs.create(nova.cpu, "/f");
    nova.fs.fallocate(nova.cpu, ino, 0, 4096);
    sim::Cpu cpu(nullptr, 0, 0);
    nova.fs.journal().commit(cpu, ino);
    EXPECT_LT(cpu.now(), 1000u);
}
