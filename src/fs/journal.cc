/**
 * @file
 * Journal implementation: commit costs plus the durable metadata
 * image that FileSystem::recover() replays after a crash.
 */
#include "fs/journal.h"

#include <algorithm>
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

void
Journal::markDirty(Ino ino)
{
    if (dirtyState_.size() <= ino)
        dirtyState_.resize(ino + 1, DirtyState::Absent);
    DirtyState &state = dirtyState_[ino];
    if (state == DirtyState::Dirty)
        return;
    if (state == DirtyState::Absent)
        dirtyList_.push_back(ino);
    state = DirtyState::Dirty;
    dirtyCount_++;
}

void
Journal::clearDirtyOne(Ino ino)
{
    if (!isDirty(ino))
        return;
    dirtyState_[ino] = DirtyState::Stale;
    dirtyCount_--;
    if (dirtyList_.size() - dirtyCount_ <= dirtyCount_)
        return;
    std::erase_if(dirtyList_, [this](Ino listed) {
        if (dirtyState_[listed] == DirtyState::Dirty)
            return false;
        dirtyState_[listed] = DirtyState::Absent;
        return true;
    });
}

void
Journal::clearDirtySet()
{
    for (const Ino ino : dirtyList_)
        dirtyState_[ino] = DirtyState::Absent;
    dirtyList_.clear();
    dirtyCount_ = 0;
}

std::vector<Ino>
Journal::dirtyBatch() const
{
    std::vector<Ino> batch;
    batch.reserve(dirtyCount_);
    for (const Ino ino : dirtyList_) {
        if (dirtyState_[ino] == DirtyState::Dirty)
            batch.push_back(ino);
    }
    std::sort(batch.begin(), batch.end());
    return batch;
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
        if (dirtyCount_ == 0)
            return;
        const std::vector<Ino> batch = dirtyBatch();
        const sim::Time begin = cpu.now();
        DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
        sim::ScopedLock guard(lock_, cpu);
        chargeCommit(cpu);
        commitNs_.record(cpu.now() - begin);
        for (const Ino b : batch)
            snapshot(b);
        if (batch.size() > 1)
            batchedInodes_ += batch.size();
        clearDirtySet();
    } else {
        // NOVA commits per inode: each log is independent.
        if (!isDirty(ino))
            return;
        const sim::Time begin = cpu.now();
        DAX_SPAN(sim::TraceCat::Fs, cpu, "journal_commit");
        chargeCommit(cpu);
        commitNs_.record(cpu.now() - begin);
        snapshot(ino);
        clearDirtyOne(ino);
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
    clearDirtyOne(ino);
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::JournalCommit, cpu.now());
}

void
Journal::commitAll(sim::Cpu &cpu)
{
    if (dirtyCount_ == 0)
        return;
    const std::vector<Ino> batch = dirtyBatch();
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
    clearDirtySet();
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::JournalCommit, cpu.now());
}

} // namespace dax::fs
