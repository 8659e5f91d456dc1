/**
 * @file
 * The memory-access engine: every load/store a workload performs on a
 * mapping goes through the per-core MMU (TLB + walker), takes demand
 * or permission faults as needed, and charges device time for the data
 * itself. Functionally, bytes are copied to/from the backing device so
 * data integrity is testable end to end.
 */
#include <algorithm>
#include <stdexcept>

#include "sim/span_trace.h"
#include "vm/address_space.h"

namespace dax::vm {

namespace {

struct Chunk
{
    std::uint64_t paddr;
    std::uint64_t len;
    bool dram;
};

} // namespace

void
AddressSpace::memRead(sim::Cpu &cpu, std::uint64_t va, std::uint64_t len,
                      mem::Pattern pattern, void *dst, bool kernelCopy)
{
    DAX_SPAN(sim::TraceCat::Fault, cpu, "mem_read");
    vmm_.hub().drainDisruption(cpu);
    noteCore(cpu.coreId());
    const sim::Time begin = cpu.now();
    arch::Mmu &mmu = vmm_.hub().mmu(cpu.coreId());

    std::uint64_t done = 0;
    bool first = true;
    int mceRetries = 0;
    while (done < len) {
        const std::uint64_t addr = va + done;
        arch::Mmu::Result r;
        int attempts = 0;
        for (;;) {
            r = mmu.translate(cpu, pt_, addr, /*write=*/false, asid_,
                              perf_);
            if (r.outcome == arch::Mmu::Outcome::Ok)
                break;
            if (++attempts > 3)
                throw std::runtime_error("unresolvable read fault");
            if (!handleFault(cpu, addr, /*write=*/false))
                throw std::runtime_error("SIGSEGV on read");
        }
        const std::uint64_t pageEnd =
            (addr >> r.pageShift << r.pageShift)
            + (1ULL << r.pageShift);
        const std::uint64_t chunk =
            std::min(len - done, pageEnd - addr);
        mem::Device &dev = r.dram ? vmm_.dram() : vmm_.fs().device();
        const mem::Pattern p =
            first ? pattern : mem::Pattern::Seq;
        try {
            if (kernelCopy)
                dev.readKernel(cpu, r.paddr, chunk, p);
            else
                dev.read(cpu, r.paddr, chunk, p);
            if (dst != nullptr) {
                dev.fetch(r.paddr,
                          static_cast<std::uint8_t *>(dst) + done, chunk);
            }
        } catch (const mem::MachineCheckException &mc) {
            // Synchronous #MC on a DAX load. The kernel handler either
            // repairs the backing block (remap policies tear down this
            // translation through the remap hooks, so the retry
            // re-faults onto the replacement) or delivers SIGBUS
            // (BUS_MCEERR_AR) to this thread. The retry bound keeps a
            // pathological poison stream from looping forever.
            cpu.advance(vmm_.cm().mceHandle);
            DAX_TRACE(sim::TraceCat::Fault, cpu,
                      "mce va=0x%llx pa=0x%llx",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(mc.addr()));
            if (!vmm_.fs().handlePoison(cpu, mc.addr())
                || ++mceRetries > 8) {
                vmm_.noteMceSigbus();
                execNs_ += cpu.now() - begin;
                throw SigBusException(addr, mc.addr());
            }
            continue; // re-translate: the page was remapped
        }
        first = false;
        done += chunk;
    }
    execNs_ += cpu.now() - begin;
}

void
AddressSpace::memWrite(sim::Cpu &cpu, std::uint64_t va, std::uint64_t len,
                       mem::Pattern pattern, mem::WriteMode mode,
                       const void *src)
{
    DAX_SPAN(sim::TraceCat::Fault, cpu, "mem_write");
    vmm_.hub().drainDisruption(cpu);
    noteCore(cpu.coreId());
    const sim::Time begin = cpu.now();
    arch::Mmu &mmu = vmm_.hub().mmu(cpu.coreId());

    std::uint64_t done = 0;
    bool first = true;
    while (done < len) {
        const std::uint64_t addr = va + done;
        arch::Mmu::Result r;
        int attempts = 0;
        for (;;) {
            r = mmu.translate(cpu, pt_, addr, /*write=*/true, asid_,
                              perf_);
            if (r.outcome == arch::Mmu::Outcome::Ok)
                break;
            if (++attempts > 5)
                throw std::runtime_error("unresolvable write fault");
            if (!handleFault(cpu, addr, /*write=*/true))
                throw std::runtime_error("SIGSEGV on write");
        }
        const std::uint64_t pageEnd =
            (addr >> r.pageShift << r.pageShift)
            + (1ULL << r.pageShift);
        const std::uint64_t chunk =
            std::min(len - done, pageEnd - addr);
        mem::Device &dev = r.dram ? vmm_.dram() : vmm_.fs().device();
        const mem::Pattern p = first ? pattern : mem::Pattern::Seq;
        dev.write(cpu, r.paddr, chunk, mode, p);
        if (src != nullptr) {
            // The write mode decides the persistence domain: Cached
            // stores sit in the (volatile) cache until flushed.
            dev.store(r.paddr,
                      static_cast<const std::uint8_t *>(src) + done,
                      chunk, mode);
        }
        first = false;
        done += chunk;
    }
    execNs_ += cpu.now() - begin;
}

} // namespace dax::vm
