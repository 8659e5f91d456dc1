/**
 * @file
 * TLB shootdown hub: IPI-based remote TLB invalidation.
 *
 * Shootdowns are the inherently unscalable operation DaxVM's async
 * unmap attacks: the initiator pays an IPI broadcast plus per-core ack
 * cost, and every interrupted core loses ipiRemoteDisruption of useful
 * time. Victim time is accumulated per core and drained at the victim's
 * next quantum boundary, which is how interrupt disruption appears in
 * throughput without the engine preempting anyone.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/tlb.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace dax::arch {

/** Set of cores, one bit per core (<= 64 cores). */
using CoreMask = std::uint64_t;

constexpr CoreMask
coreBit(int core)
{
    return 1ULL << static_cast<unsigned>(core);
}

class ShootdownHub
{
  public:
    /**
     * @param metrics shared telemetry registry; when null (standalone
     *        tests) the hub owns a private one
     */
    ShootdownHub(const sim::CostModel &cm, unsigned nCores,
                 sim::MetricsRegistry *metrics = nullptr);

    /** Register the MMU of a core (once, at system construction). */
    void registerMmu(int core, Mmu *mmu);

    Mmu &mmu(int core) { return *mmus_.at(static_cast<unsigned>(core)); }

    /**
     * Invalidate @p pages on all cores in @p targets. The initiating
     * core flushes locally with INVLPG; remote cores get one IPI
     * broadcast. Matches Linux's batched flush: above
     * tlbFlushThreshold pages, full flushes are used instead.
     *
     * @param totalPages real number of 4K pages being unmapped when the
     *        caller truncated or coarsened @p pages (e.g. one base
     *        address per detached DaxVM granule); the full-flush
     *        escalation must be driven by this count, not the list
     *        length, or stale entries survive on every core including
     *        the initiator. 0 means "pages is exact".
     */
    void shootdownPages(sim::Cpu &cpu, CoreMask targets, Asid asid,
                        const std::vector<std::uint64_t> &pages,
                        std::uint64_t totalPages = 0);

    /** Full TLB flush on all cores in @p targets (one IPI broadcast). */
    void shootdownFull(sim::Cpu &cpu, CoreMask targets, Asid asid);

    /**
     * Charge any interrupt time stolen from @p cpu's core since its
     * last quantum. Workloads call this at quantum start.
     */
    void drainDisruption(sim::Cpu &cpu);

    sim::MetricsRegistry &metricsRegistry() { return *metrics_; }

    /** Invariant-check observer fired after each shootdown. */
    void setCheckHook(sim::CheckHook *hook) { checkHook_ = hook; }

  private:
    unsigned remoteCount(CoreMask targets, int self) const;
    void disturbRemotes(sim::Cpu &cpu, CoreMask targets, int self);

    const sim::CostModel &cm_;
    unsigned nCores_;
    std::vector<Mmu *> mmus_;
    std::vector<sim::Time> pendingDisruption_;
    /** Trace flow ids of undrained IPIs, per victim core. */
    std::vector<std::vector<std::uint64_t>> pendingFlowIds_;
    sim::CheckHook *checkHook_ = nullptr;
    std::unique_ptr<sim::MetricsRegistry> ownedMetrics_;
    sim::MetricsRegistry *metrics_;
    /** Typed hot-path instruments (legacy names, see sim/metrics.h). */
    sim::Counter ipis_;
    sim::Counter ipiTargets_;
    sim::Counter invlpg_;
    sim::Counter fullFlushes_;
    sim::Counter disruptionNs_;
    sim::LatencyHistogram shootdownNs_;
};

} // namespace dax::arch
