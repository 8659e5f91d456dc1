/**
 * @file
 * Demand paging and dirty-tracking faults (Linux default DAX path).
 *
 * The cost structure follows paper Section III-A:
 *  - every first touch of a page pays trap + mmap_sem (reader) +
 *    extent lookup + PTE install;
 *  - shared-writable mappings are installed read-only so the first
 *    write pays a *second* (permission) fault that tags the page dirty
 *    in the page-cache tree;
 *  - with MAP_SYNC on ext4, making a page writable while the file has
 *    uncommitted metadata triggers a synchronous journal commit - the
 *    effect behind the aged-image YCSB collapse (Section V-C2).
 *
 * DaxVM mappings only ever take attachment-level permission faults
 * (2 MB dirty granularity) and none at all in nosync mode.
 */
#include <stdexcept>

#include "arch/pte.h"
#include "sim/span_trace.h"
#include "vm/address_space.h"

namespace dax::vm {

namespace {

/** Is this 2 MB file chunk backed by one aligned physical huge run? */
bool
hugeMappable(const fs::Inode &node, std::uint64_t fileOff)
{
    if (fileOff % mem::kHugePageSize != 0)
        return false;
    const std::uint64_t fileBlock = fileOff / fs::kBlockSize;
    const auto run = node.find(fileBlock);
    if (!run)
        return false;
    if (run->count < fs::kBlocksPerHuge)
        return false;
    return run->physBlock % fs::kBlocksPerHuge == 0;
}

} // namespace

void
AddressSpace::makeWritable(sim::Cpu &cpu, Vma &vma, std::uint64_t va,
                           unsigned pageShift)
{
    DAX_SPAN(sim::TraceCat::Fault, cpu, "wp_upgrade");
    const std::uint64_t span = 1ULL << pageShift;
    const std::uint64_t base = va / span * span;
    const int level = pageShift == 21   ? arch::kPmdLevel
                      : pageShift == 30 ? arch::kPudLevel
                                        : arch::kPteLevel;

    // First write into fallocate'd blocks converts them from the
    // "unwritten" state - a metadata change.
    fs::Inode &node = vmm_.fs().inode(vma.ino);
    const std::uint64_t blockBase =
        vma.fileOffsetOf(base) / fs::kBlockSize;
    if (fs::intervalErase(node.unwritten, blockBase,
                          span / fs::kBlockSize)
        > 0) {
        vmm_.fs().journal().markDirty(vma.ino);
    }

    // MAP_SYNC: metadata must be durable before user-space can write
    // through the mapping (synchronous commit on ext4; NOVA commits
    // in place, so this is effectively free there).
    if ((vma.flags & kMapSync) != 0)
        vmm_.fs().journal().commit(cpu, vma.ino);

    pt_.setFlags(base, level, arch::pte::kWrite | arch::pte::kDirty
                                  | arch::pte::kSoftDirtyTracked,
                 0);
    // Tag the whole mapped granule dirty in the page-cache tree.
    const std::uint64_t filePage =
        vma.fileOffsetOf(base) / fs::kBlockSize;
    vmm_.markDirty(cpu, vma.ino, filePage, span / fs::kBlockSize);

    // The local TLB may cache the read-only translation.
    vmm_.hub().mmu(cpu.coreId()).tlb().invalidatePage(base, asid_);
}

bool
AddressSpace::installTranslation(sim::Cpu &cpu, Vma &vma, std::uint64_t va,
                                 bool forWrite, bool trapped)
{
    fs::Inode &node = vmm_.fs().inode(vma.ino);
    const std::uint64_t fileOff = vma.fileOffsetOf(va);
    if (fileOff >= node.size) {
        return false; // SIGBUS: access beyond EOF
    }
    {
        DAX_SPAN(sim::TraceCat::Fault, cpu, "pt_walk");
        vmm_.fs().chargeExtentLookup(cpu, node);
    }

    // Prefer a 2 MB mapping when file offset, virtual address and the
    // backing extent all line up (fragmentation breaks this on aged
    // images - paper Section III-C).
    const std::uint64_t hugeOff =
        fileOff / mem::kHugePageSize * mem::kHugePageSize;
    const std::uint64_t hugeVa =
        va / mem::kHugePageSize * mem::kHugePageSize;
    const bool vaAligned =
        va % mem::kHugePageSize == fileOff % mem::kHugePageSize;
    bool asHuge = false;
    if (vmm_.hugePagesEnabled() && vaAligned && hugeVa >= vma.start
        && hugeVa + mem::kHugePageSize <= vma.end
        && hugeMappable(node, hugeOff)
        && hugeOff + mem::kHugePageSize <= node.size) {
        asHuge = true;
    }

    const std::uint64_t base = asHuge ? hugeVa
                                      : va / mem::kPageSize
                                            * mem::kPageSize;
    const std::uint64_t baseOff = vma.fileOffsetOf(base);
    const auto run = node.find(baseOff / fs::kBlockSize);
    if (!run)
        return false; // hole: DAX files are fully allocated
    const std::uint64_t pa =
        vmm_.fs().blockAddr(run->physBlock);

    // Shared-writable mappings start read-only for dirty tracking;
    // everything else gets its VMA permission directly.
    const bool tracked = vma.writable && (vma.flags & kMapNoMsync) == 0;
    arch::Pte flags = 0;
    if (vma.writable && !tracked)
        flags |= arch::pte::kWrite;

    const int level = asHuge ? arch::kPmdLevel : arch::kPteLevel;
    {
        DAX_SPAN(sim::TraceCat::Fault, cpu, "frame_alloc");
        const unsigned newPages = pt_.map(base, pa, level, flags);
        cpu.advance(vmm_.cm().ptPageAlloc * newPages);
        cpu.advance(asHuge ? vmm_.cm().pmdSet : vmm_.cm().pteSet);
    }
    if (trapped)
        vmm_.counters().majorFaults.add();

    if (forWrite && tracked)
        makeWritable(cpu, vma, base, asHuge ? 21 : 12);
    return true;
}

bool
AddressSpace::handleFault(sim::Cpu &cpu, std::uint64_t va, bool write)
{
    const sim::Time faultBegin = cpu.now();
    DAX_SPAN(sim::TraceCat::Fault, cpu, "fault");
    cpu.advance(vmm_.cm().faultEntry);
    noteCore(cpu.coreId());
    vmm_.counters().faults.add();
    DAX_TRACE(sim::TraceCat::Fault, cpu, "%s va=0x%llx core=%d",
              write ? "write" : "read", (unsigned long long)va,
              cpu.coreId());

    sim::ScopedReadLock guard(mmapSem_, cpu);
    Vma *vma = findVma(va);
    if (vma == nullptr || (write && !vma->writable))
        return false; // SIGSEGV

    const arch::WalkResult walk = pt_.lookup(va);
    if (!walk.present) {
        const bool ok =
            installTranslation(cpu, *vma, va, write, /*trapped=*/true);
        vmm_.counters().faultNs.record(cpu.now() - faultBegin);
        return ok;
    }

    if (write && !walk.writable) {
        if (vma->daxvm) {
            // DaxVM attachment-level permission fault: dirty tracking
            // at 2 MB (or coarser) granularity (Section IV-D).
            DAX_SPAN(sim::TraceCat::Fault, cpu, "wp_upgrade");
            const int level = vma->attachLevel >= 0 ? vma->attachLevel
                                                    : arch::kPmdLevel;
            const std::uint64_t span = arch::levelSpan(level);
            const std::uint64_t base = va / span * span;
            fs::Inode &node = vmm_.fs().inode(vma->ino);
            if (fs::intervalErase(node.unwritten,
                                  vma->fileOffsetOf(base)
                                      / fs::kBlockSize,
                                  span / fs::kBlockSize)
                > 0) {
                vmm_.fs().journal().markDirty(vma->ino);
            }
            if ((vma->flags & kMapSync) != 0)
                vmm_.fs().journal().commit(cpu, vma->ino);
            // Attached nodes carry per-process rights on the
            // attachment entry; huge chunks installed directly in the
            // private tree upgrade their own PMD entry.
            if (!pt_.setAttachmentWritable(base, level, true)) {
                pt_.setFlags(base, level,
                             arch::pte::kWrite | arch::pte::kDirty, 0);
            }
            const std::uint64_t filePage =
                vma->fileOffsetOf(base) / fs::kBlockSize;
            vmm_.markDirty(cpu, vma->ino, filePage,
                           span / fs::kBlockSize);
            vmm_.hub().mmu(cpu.coreId()).tlb().invalidatePage(va, asid_);
            vmm_.counters().daxvmWpFaults.add();
            vmm_.counters().faultNs.record(cpu.now() - faultBegin);
            return true;
        }
        makeWritable(cpu, *vma, va, walk.pageShift);
        vmm_.counters().wpFaults.add();
        vmm_.counters().faultNs.record(cpu.now() - faultBegin);
        return true;
    }

    // Stale TLB entry (e.g. entry cached before a permission upgrade):
    // the walk already satisfies the access; refresh and retry.
    vmm_.hub().mmu(cpu.coreId()).tlb().invalidatePage(va, asid_);
    return true;
}

void
AddressSpace::populateRange(sim::Cpu &cpu, Vma &vma, std::uint64_t off,
                            std::uint64_t len, bool forWrite)
{
    const std::uint64_t end = std::min(vma.start + off + len, vma.end);
    std::uint64_t va = vma.start + off;
    fs::Inode &node = vmm_.fs().inode(vma.ino);
    while (va < end) {
        if (vma.fileOffsetOf(va) >= node.size)
            break;
        const arch::WalkResult walk = pt_.lookup(va);
        if (walk.present) {
            va = (va / mem::kPageSize + 1) * mem::kPageSize;
            continue;
        }
        if (!installTranslation(cpu, vma, va, forWrite,
                                /*trapped=*/false)) {
            break;
        }
        const arch::WalkResult now = pt_.lookup(va);
        const std::uint64_t span =
            now.present ? (1ULL << now.pageShift) : mem::kPageSize;
        va = va / span * span + span;
    }
    vmm_.counters().populates.add();
}

} // namespace dax::vm
