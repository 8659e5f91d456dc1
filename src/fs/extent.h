/**
 * @file
 * Extent types shared across the file-system layer.
 */
#pragma once

#include <cstdint>

#include "mem/device.h"

namespace dax::fs {

/** File-system block size (== page size; DAX requires this). */
inline constexpr std::uint64_t kBlockSize = mem::kPageSize;
/** Blocks per 2 MB huge page. */
inline constexpr std::uint64_t kBlocksPerHuge =
    mem::kHugePageSize / kBlockSize;

/** First 2 MB-aligned block at or after @p block. */
constexpr std::uint64_t
hugeAlignUp(std::uint64_t block)
{
    return (block + kBlocksPerHuge - 1) / kBlocksPerHuge * kBlocksPerHuge;
}

/** A run of physically contiguous blocks. */
struct Extent
{
    std::uint64_t block = 0;  ///< first physical block number
    std::uint64_t count = 0;  ///< number of blocks

    std::uint64_t bytes() const { return count * kBlockSize; }
    std::uint64_t endBlock() const { return block + count; }

    bool operator==(const Extent &) const = default;
};

/** An extent mapped at a position within a file. */
struct FileExtent
{
    std::uint64_t fileBlock = 0;  ///< first file-relative block
    Extent extent;

    bool operator==(const FileExtent &) const = default;
};

} // namespace dax::fs
