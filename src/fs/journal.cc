/**
 * @file
 * Journal implementation: commit costs plus the durable metadata
 * image that FileSystem::recover() replays after a crash.
 */
#include "fs/journal.h"

#include <vector>

#include "sim/span_trace.h"

namespace dax::fs {

void
Journal::chargeCommit(sim::Cpu &cpu)
{
    // The fault point fires BEFORE the snapshot is captured: a crash
    // at this commit loses it, every earlier commit survives.
    if (personality_ == Personality::Ext4Dax) {
        cpu.advance(cm_.journalCommit);
        if (plan_ != nullptr)
            plan_->onEvent(sim::FaultEvent::JournalCommit, cpu.now());
    } else {
        cpu.advance(cm_.novaLogCommit);
        if (plan_ != nullptr)
            plan_->onEvent(sim::FaultEvent::NovaCommit, cpu.now());
    }
    commits_++;
}

void
Journal::mergeRetired(Ino ino)
{
    auto it = pendingRetired_.find(ino);
    if (it == pendingRetired_.end())
        return;
    for (const Extent &e : it->second)
        intervalInsert(retired_, e.block, e.count);
    pendingRetired_.erase(it);
}

void
Journal::snapshot(Ino ino)
{
    // Retired-block records ride their inode's snapshot so the two
    // mutations are atomic even under NOVA's per-inode commits.
    mergeRetired(ino);
    if (!resolver_)
        return;
    const Inode *node = resolver_(ino);
    if (node == nullptr) {
        committed_.erase(ino);
        return;
    }
    InodeRecord &rec = committed_[ino];
    rec.path = node->path;
    rec.size = node->size;
    rec.extents = node->extents;
    rec.unwritten = node->unwritten;
    rec.badBlocks = node->badBlocks;
    rec.allocatedCount = node->allocatedCount;
}

std::vector<Extent>
Journal::retiredImage() const
{
    std::vector<Extent> out;
    out.reserve(retired_.size());
    for (const auto &[start, len] : retired_)
        out.push_back(Extent{start, len});
    return out;
}

void
Journal::commit(sim::Cpu &cpu, Ino ino)
{
    if (personality_ == Personality::Ext4Dax) {
        // jbd2 has one running transaction shared by every dirty
        // inode. fsync(ino) forces that whole transaction out before
        // acking - even when ino itself is clean and the transaction
        // only carries other inodes' metadata; committing ino alone
        // would ack durability for an image its own transaction does
        // not contain.
        if (dirty_.empty())
            return;
        const std::vector<Ino> batch(dirty_.begin(), dirty_.end());
        const sim::Time begin = cpu.now();
        DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
        sim::ScopedLock guard(lock_, cpu);
        chargeCommit(cpu);
        commitNs_.record(cpu.now() - begin);
        for (const Ino b : batch)
            snapshot(b);
        if (batch.size() > 1)
            batchedInodes_ += batch.size();
        dirty_.clear();
    } else {
        // NOVA commits per inode: each log is independent.
        if (!isDirty(ino))
            return;
        const sim::Time begin = cpu.now();
        DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
        chargeCommit(cpu);
        commitNs_.record(cpu.now() - begin);
        snapshot(ino);
        dirty_.erase(ino);
    }
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::JournalCommit, cpu.now());
}

void
Journal::commitErase(sim::Cpu &cpu, Ino ino)
{
    const sim::Time begin = cpu.now();
    DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
    if (personality_ == Personality::Ext4Dax) {
        sim::ScopedLock guard(lock_, cpu);
        chargeCommit(cpu);
    } else {
        chargeCommit(cpu);
    }
    commitNs_.record(cpu.now() - begin);
    mergeRetired(ino);
    committed_.erase(ino);
    dirty_.erase(ino);
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::JournalCommit, cpu.now());
}

void
Journal::commitAll(sim::Cpu &cpu)
{
    if (dirty_.empty())
        return;
    const std::vector<Ino> batch(dirty_.begin(), dirty_.end());
    if (personality_ == Personality::Ext4Dax) {
        // jbd2 group commit: the whole batch rides one transaction.
        const sim::Time begin = cpu.now();
        DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
        sim::ScopedLock guard(lock_, cpu);
        chargeCommit(cpu);
        commitNs_.record(cpu.now() - begin);
        for (const Ino ino : batch)
            snapshot(ino);
        batchedInodes_ += batch.size();
    } else {
        for (const Ino ino : batch) {
            const sim::Time begin = cpu.now();
            DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
            chargeCommit(cpu);
            commitNs_.record(cpu.now() - begin);
            snapshot(ino);
        }
    }
    dirty_.clear();
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::JournalCommit, cpu.now());
}

} // namespace dax::fs
