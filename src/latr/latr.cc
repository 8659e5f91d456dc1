/**
 * @file
 * LATR implementation.
 */
#include "latr/latr.h"

#include <algorithm>

#include "sim/span_trace.h"

namespace dax::latr {

namespace {

/** Enqueue cost per target core (descriptor write + bookkeeping). */
constexpr sim::Time kEnqueuePerCore = 180;
/** Sweep base cost at a scheduling boundary. */
constexpr sim::Time kSweepBase = 150;
/** Per-invalidation apply cost (local INVLPG-equivalent). */
constexpr sim::Time kApplyPerPage = 90;

} // namespace

Latr::Latr(const sim::CostModel &cm, arch::ShootdownHub &hub,
           unsigned nCores)
    : cm_(cm), hub_(hub), pending_(nCores), pendingFlowIds_(nCores)
{
}

void
Latr::lazyShootdown(sim::Cpu &cpu, arch::CoreMask targets,
                    arch::Asid asid,
                    const std::vector<std::uint64_t> &pages,
                    std::uint64_t totalPages)
{
    DAX_SPAN(sim::TraceCat::Latr, cpu, "latr_lazy");
    // LATR's shared state is protected by its own lock, which is the
    // contention the paper observed.
    sim::ScopedLock guard(stateLock_, cpu);
    const int self = cpu.coreId();
    const std::uint64_t effective =
        std::max<std::uint64_t>(pages.size(), totalPages);
    // Like the IPI path, a truncated/coarsened page list must escalate
    // to an asid-wide flush or the pages missing from the list stay
    // stale on every core.
    const bool fullFlush = effective > cm_.tlbFlushThreshold;

    // Local invalidation is immediate.
    if (fullFlush) {
        hub_.mmu(self).tlb().flushAsid(asid);
        cpu.advance(cm_.fullFlushLocal);
    } else {
        for (const auto page : pages) {
            hub_.mmu(self).tlb().invalidatePage(page, asid);
            cpu.advance(cm_.invlpg);
        }
    }

    sim::SpanRecorder &rec = sim::SpanRecorder::get();
    const bool flows = rec.enabled(sim::TraceCat::Latr);
    for (unsigned c = 0; c < pending_.size(); c++) {
        if (static_cast<int>(c) == self
            || (targets & arch::coreBit(static_cast<int>(c))) == 0) {
            continue;
        }
        cpu.advance(kEnqueuePerCore);
        if (fullFlush) {
            pending_[c].push_back({asid, kFlushAll});
        } else {
            for (const auto page : pages)
                pending_[c].push_back({asid, page});
        }
        lazyCount_ += effective;
        // Causal arrow enqueue -> victim's latr_drain sweep (one per
        // victim core and batch; drained together with pending_[c]).
        if (flows) {
            pendingFlowIds_[c].push_back(
                rec.flowStart(sim::TraceCat::Latr,
                              sim::spanTrackOf(cpu), self, cpu.now(),
                              "latr"));
        }
    }
    DAX_TRACE(sim::TraceCat::Latr, cpu, "lazy %s pages=%zu asid=%u",
              fullFlush ? "full-flush" : "batch", pages.size(),
              (unsigned)asid);
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::LazyShootdown, cpu.now());
}

void
Latr::drain(sim::Cpu &cpu)
{
    auto &mine = pending_.at(static_cast<unsigned>(cpu.coreId()));
    if (mine.empty())
        return;
    DAX_SPAN(sim::TraceCat::Latr, cpu, "latr_drain");
    auto &flows =
        pendingFlowIds_.at(static_cast<unsigned>(cpu.coreId()));
    if (!flows.empty()) {
        sim::SpanRecorder &rec = sim::SpanRecorder::get();
        if (rec.enabled(sim::TraceCat::Latr)) {
            for (const std::uint64_t id : flows)
                rec.flowEnd(sim::TraceCat::Latr, sim::spanTrackOf(cpu),
                            cpu.coreId(), cpu.now(), "latr", id);
        }
        flows.clear();
    }
    sim::ScopedLock guard(stateLock_, cpu);
    cpu.advance(kSweepBase);
    for (const auto &p : mine) {
        if (p.page == kFlushAll) {
            hub_.mmu(cpu.coreId()).tlb().flushAsid(p.asid);
            cpu.advance(cm_.fullFlushLocal);
            continue;
        }
        hub_.mmu(cpu.coreId()).tlb().invalidatePage(p.page, p.asid);
        cpu.advance(kApplyPerPage);
    }
    DAX_TRACE(sim::TraceCat::Latr, cpu, "drain applied=%zu core=%d",
              mine.size(), cpu.coreId());
    mine.clear();
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::LatrDrain, cpu.now());
}

bool
Latr::pendingCovers(int core, arch::Asid asid, std::uint64_t page) const
{
    for (const auto &p : pending_.at(static_cast<unsigned>(core))) {
        if (p.asid == asid && (p.page == kFlushAll || p.page == page))
            return true;
    }
    return false;
}

bool
Latr::munmapLazy(sim::Cpu &cpu, vm::AddressSpace &as, std::uint64_t va)
{
    DAX_SPAN(sim::TraceCat::Latr, cpu, "latr_munmap");
    cpu.advance(cm_.syscall);
    sim::ScopedWriteLock guard(as.mmapSem(), cpu);
    vm::Vma *vma = as.findVma(va);
    if (vma == nullptr)
        return false;
    std::vector<std::uint64_t> pages;
    const std::uint64_t start = vma->start;
    const std::uint64_t zapped =
        as.zapRange(cpu, *vma, vma->start, vma->end, pages);
    cpu.advance(cm_.vmaFree);
    as.vmm().unregisterMapping(vma->ino, &as, start);
    as.eraseVma(start);
    lazyShootdown(cpu, as.cpuMask(), as.asid(), pages, zapped);
    // LATR only sweeps pending descriptors at scheduling boundaries,
    // but munmap must be coherent on the initiating core immediately:
    // a same-quantum access here could otherwise hit a translation
    // some other core lazily invalidated. Drain synchronously.
    drain(cpu);
    return true;
}

} // namespace dax::latr
