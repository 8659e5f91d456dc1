/**
 * @file
 * Key-value store tour: runs the pmem-RocksDB-like LSM store on an
 * aged image through the default mmap path (MAP_SYNC journal commits
 * on every first-touch fault) and through DaxVM (2 MB dirty tracking,
 * nosync, asynchronous pre-zeroing), showing where the paper's YCSB
 * gains come from.
 */
#include <cstdio>

#include "sys/system.h"
#include "workloads/kvstore.h"
#include "workloads/ycsb.h"

using namespace dax;
using namespace dax::wl;

namespace {

void
runStore(const char *label, const AccessOptions &access)
{
    sys::SystemConfig config;
    config.cores = 4;
    // A 1 GB image ages into small free extents, so the 16 MB
    // WAL/SSTables really fragment (no silent huge-page rescue).
    config.pmemBytes = 1ULL << 30;
    sys::System system(config);

    fs::AgingConfig aging;
    aging.churnFactor = 3.0;
    const auto report = system.age(aging);

    auto process = system.newProcess();
    KvStore::Config kc;
    kc.memtableRecords = 4096; // 16 MB WAL / SSTables
    kc.compactionTrigger = 4;
    kc.compactionWidth = 2;
    kc.access = access;
    KvStore kv(system, *process, kc);

    // Load 8K records, then a 50/50 read-update mix - on the engine so
    // the pre-zero daemon recycles freed SSTables concurrently.
    YcsbRunner::Config load;
    load.kv = &kv;
    load.mix = YcsbMix::loadA();
    load.records = 0;
    load.ops = 8192;
    system.engine().addThread(std::make_unique<YcsbRunner>(load), 0);
    const sim::Time loadTime = system.engine().run();

    YcsbRunner::Config runA;
    runA.kv = &kv;
    runA.mix = YcsbMix::runA();
    runA.records = 8192;
    runA.ops = 8192;
    system.engine().addThread(std::make_unique<YcsbRunner>(runA), 0,
                              loadTime);
    const sim::Time total = system.engine().run();

    std::printf("%-10s image frag: %llu free extents | load %.1f ms, "
                "runA %.1f ms\n",
                label,
                (unsigned long long)report.freeExtents,
                static_cast<double>(loadTime) / 1e6,
                static_cast<double>(total - loadTime) / 1e6);
    std::printf("           faults=%llu wp=%llu daxvm_wp=%llu "
                "journal_commits=%llu prezeroed_blocks=%llu\n",
                (unsigned long long)system.metrics().counterValue(
                    "vm.faults"),
                (unsigned long long)system.metrics().counterValue(
                    "vm.wp_faults"),
                (unsigned long long)system.metrics().counterValue(
                    "vm.daxvm_wp_faults"),
                (unsigned long long)system.fs().journal().commits(),
                (unsigned long long)system.metrics().counterValue(
                    "fs.prezeroed_blocks"));
}

} // namespace

int
main()
{
    std::printf("LSM key-value store on an aged ext4-DAX image\n");
    std::printf("---------------------------------------------\n");

    AccessOptions mmapSync;
    mmapSync.interface = Interface::Mmap;
    mmapSync.mapSync = true; // user-space durability over ext4
    runStore("mmap", mmapSync);

    AccessOptions daxvm;
    daxvm.interface = Interface::DaxVm;
    daxvm.nosync = true;
    runStore("daxvm", daxvm);

    std::printf("\nThe mmap run pays a page fault + journal commit per "
                "4KB first touch\n(MAP_SYNC over a fragmented image); "
                "DaxVM tracks nothing (nosync),\nattaches pre-populated"
                " tables, and appends land on pre-zeroed blocks.\n");
    return 0;
}
