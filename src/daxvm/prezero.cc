/**
 * @file
 * PrezeroDaemon implementation.
 */
#include "daxvm/prezero.h"

#include <algorithm>

#include "sim/span_trace.h"

namespace dax::daxvm {

namespace {

/** Blocks zeroed per daemon quantum (bounded step size). */
constexpr std::uint64_t kBatchBlocks = 1024; // 4 MB

} // namespace

PrezeroDaemon::PrezeroDaemon(fs::FileSystem &fs, const sim::CostModel &cm,
                             sim::Bw throttle, unsigned nCores)
    : fs_(fs), cm_(cm), throttle_(throttle),
      queues_(nCores == 0 ? 1 : nCores)
{
}

bool
PrezeroDaemon::onFree(int core, sim::Time now, const fs::Extent &extent)
{
    if (!enabled_)
        return false;
    auto &queue =
        queues_[static_cast<unsigned>(core < 0 ? 0 : core)
                % queues_.size()];
    queue.push_back(extent);
    pendingBlocks_ += extent.count;
    if (engine_ != nullptr && threadId_ >= 0)
        engine_->wake(threadId_, now);
    return true;
}

void
PrezeroDaemon::zeroExtent(sim::Cpu *cpu, const fs::Extent &extent)
{
    const std::uint64_t addr = fs_.allocator().blockAddr(extent.block);
    const std::uint64_t bytes = extent.bytes();
    fs_.device().zero(addr, bytes);
    if (cpu != nullptr) {
        // Pace the daemon at the throttle and occupy device write
        // bandwidth so foreground traffic feels the pressure.
        cpu->advance(sim::CostModel::xfer(
            bytes, std::min(throttle_, cm_.pmemNtStoreBwCore)));
        fs_.device().occupyWrite(cpu->now(), bytes);
    }
    // Persistence boundary: a crash here loses the release - the
    // blocks stay out of both pools until the allocator rebuild.
    if (plan_ != nullptr) {
        plan_->onEvent(sim::FaultEvent::PrezeroRelease,
                       cpu != nullptr ? cpu->now() : 0);
    }
    fs_.allocator().freeZeroed(extent);
    zeroedBlocks_ += extent.count;
    pendingBlocks_ -= extent.count;
}

std::uint64_t
PrezeroDaemon::onCrash()
{
    const std::uint64_t lost = pendingBlocks_;
    for (auto &queue : queues_)
        queue.clear();
    pendingBlocks_ = 0;
    return lost;
}

bool
PrezeroDaemon::step(sim::Cpu &cpu)
{
    if (pendingBlocks_ == 0)
        return false;
    DAX_SPAN(sim::TraceCat::Prezero, cpu, "prezero_batch");
    std::uint64_t budget = kBatchBlocks;
    while (budget > 0 && pendingBlocks_ > 0) {
        auto &queue = queues_[nextQueue_ % queues_.size()];
        nextQueue_++;
        if (queue.empty())
            continue;
        fs::Extent extent = queue.front();
        queue.pop_front();
        if (extent.count > budget) {
            // Split: zero the front, requeue the tail.
            fs::Extent head{extent.block, budget};
            queue.push_front(
                {extent.block + budget, extent.count - budget});
            pendingBlocks_ -= head.count;  // zeroExtent re-adjusts
            pendingBlocks_ += head.count;
            extent = head;
        }
        budget -= std::min(budget, extent.count);
        DAX_TRACE(sim::TraceCat::Prezero, cpu,
                  "zeroing blocks=%llu pending=%llu",
                  (unsigned long long)extent.count,
                  (unsigned long long)pendingBlocks_);
        zeroExtent(&cpu, extent);
    }
    return pendingBlocks_ > 0; // false parks the daemon
}

std::uint64_t
PrezeroDaemon::drainBounded(sim::Cpu *cpu, std::uint64_t maxBlocks)
{
    std::uint64_t released = 0;
    std::uint64_t budget = maxBlocks;
    unsigned idle = 0;
    while (budget > 0 && pendingBlocks_ > 0
           && idle < queues_.size()) {
        auto &queue = queues_[nextQueue_ % queues_.size()];
        nextQueue_++;
        if (queue.empty()) {
            idle++;
            continue;
        }
        idle = 0;
        fs::Extent extent = queue.front();
        queue.pop_front();
        if (extent.count > budget) {
            queue.push_front(
                {extent.block + budget, extent.count - budget});
            extent.count = budget;
        }
        budget -= extent.count;
        released += extent.count;
        zeroExtent(cpu, extent);
    }
    return released;
}

void
PrezeroDaemon::drainUntimed()
{
    for (auto &queue : queues_) {
        while (!queue.empty()) {
            fs::Extent extent = queue.front();
            queue.pop_front();
            zeroExtent(nullptr, extent);
        }
    }
}

} // namespace dax::daxvm
