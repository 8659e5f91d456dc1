/**
 * @file
 * Aging implementation.
 */
#include "fs/aging.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dax::fs {

std::string
AgingReport::toString() const
{
    std::ostringstream os;
    os << "aging: created=" << filesCreated << " deleted=" << filesDeleted
       << " written_gb="
       << static_cast<double>(bytesWritten) / (1024.0 * 1024 * 1024)
       << " util=" << utilization << " free_extents=" << freeExtents
       << " largest_free_mb="
       << static_cast<double>(largestFreeExtentBlocks) * kBlockSize
              / (1024.0 * 1024)
       << " huge_aligned_free=" << hugeAlignedFreeFraction;
    return os.str();
}

std::uint64_t
drawAgrawalSize(sim::Rng &rng, const AgingConfig &config)
{
    // Box-Muller for a normal draw; sizes are lognormal in log2 space:
    // default median 2^12.3 (~5 KB), sigma 2.4 doublings, clipped to
    // [1 KB, 64 MB]. This approximates the FAST'07 study's file size
    // distribution closely enough to drive fragmentation.
    const double u1 = rng.uniform();
    const double u2 = rng.uniform();
    const double n = std::sqrt(-2.0 * std::log(u1 + 1e-12))
                   * std::cos(6.283185307179586 * u2);
    double log2Size = config.sizeMedianLog2 + config.sizeSigmaLog2 * n;
    if (log2Size < config.sizeMinLog2)
        log2Size = config.sizeMinLog2;
    if (log2Size > config.sizeMaxLog2)
        log2Size = config.sizeMaxLog2;
    return static_cast<std::uint64_t>(std::pow(2.0, log2Size));
}

std::uint64_t
drawAgrawalSize(sim::Rng &rng)
{
    return drawAgrawalSize(rng, AgingConfig{});
}

AgingReport
ageFileSystem(FileSystem &fs, const AgingConfig &config)
{
    AgingReport report;
    sim::Rng rng(config.seed);
    sim::Cpu scratch(nullptr, -1, 0);
    BlockAllocator &alloc = fs.allocator();

    const std::uint64_t capacityBytes = alloc.totalBlocks() * kBlockSize;
    const auto churnTarget = static_cast<std::uint64_t>(
        config.churnFactor * static_cast<double>(capacityBytes));
    const auto utilTarget = static_cast<std::uint64_t>(
        config.targetUtilization * static_cast<double>(capacityBytes));

    std::vector<Ino> live;
    std::uint64_t liveBytes = 0;
    std::uint64_t serial = 0;

    // Oscillate utilization between watermarks so the whole device
    // (including the area above the resting utilization) sees churn;
    // otherwise a pristine contiguous tail survives aging.
    const auto highWater = static_cast<std::uint64_t>(
        std::min(0.93, config.targetUtilization + config.highWaterDelta)
        * static_cast<double>(capacityBytes));
    const auto lowWater = static_cast<std::uint64_t>(
        std::max(0.40, config.targetUtilization - config.lowWaterDelta)
        * static_cast<double>(capacityBytes));

    auto createOne = [&](std::uint64_t cap) -> bool {
        const std::uint64_t size = drawAgrawalSize(rng, config);
        const std::uint64_t rounded =
            (size + kBlockSize - 1) / kBlockSize * kBlockSize;
        if (liveBytes + rounded > cap
            || alloc.freeBlocks() * kBlockSize
                   < rounded + (8ULL << 20)) {
            return false;
        }
        const Ino ino =
            fs.create(scratch, config.prefix + std::to_string(serial++));
        if (!fs.fallocateSetup(ino, size)) {
            fs.unlink(scratch, ino);
            return false;
        }
        live.push_back(ino);
        liveBytes += fs.inode(ino).allocatedBlocks() * kBlockSize;
        report.filesCreated++;
        report.bytesWritten += size;
        return true;
    };

    auto deleteOne = [&]() {
        if (live.empty())
            return;
        const std::uint64_t idx = rng.below(live.size());
        const Ino ino = live[idx];
        liveBytes -= fs.inode(ino).allocatedBlocks() * kBlockSize;
        fs.unlink(scratch, ino);
        live[idx] = live.back();
        live.pop_back();
        report.filesDeleted++;
    };

    // Phase 1: fill to the high watermark.
    while (createOne(highWater)) {
    }

    // Phase 2: churn between the watermarks until the write-volume
    // target is met. Variable-size holes are punched and refilled all
    // over the device, fragmenting free space.
    while (report.bytesWritten < churnTarget && !live.empty()) {
        while (liveBytes > lowWater && !live.empty())
            deleteOne();
        while (createOne(highWater)) {
        }
    }

    // Phase 3: settle at the resting utilization target.
    while (liveBytes > utilTarget && !live.empty())
        deleteOne();

    report.utilization =
        1.0
        - static_cast<double>(alloc.freeBlocks() + alloc.zeroedBlocks())
              / static_cast<double>(alloc.totalBlocks());
    report.freeExtents = alloc.freeExtents();
    report.largestFreeExtentBlocks = alloc.largestFreeExtent();
    report.hugeAlignedFreeFraction = alloc.hugeAlignedFreeFraction();
    return report;
}

} // namespace dax::fs
