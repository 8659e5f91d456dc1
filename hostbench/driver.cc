/**
 * @file
 * hostbench: host-time benchmark driver (README.md in this directory).
 *
 * Runs one named workload on sys::System in rounds until a time budget
 * is spent. Each round builds a fresh System, prepares its image
 * (setup), runs the measured Engine::run phase and digests the
 * simulated results, so every round of one seed must produce the same
 * digest. With --trace 1 every second round is traced: each call the
 * driver's tasks make into a layer's public functions is recorded as a
 * span, and the per-layer host time is reported next to the untraced
 * rounds' run time, which gives the tracing overhead.
 *
 *   hostbench --workload aged_churn --seed 1 --seconds 20 --trace 0
 *   hostbench --selfcheck
 *
 * Prints one JSON object on stdout.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "sim/json.h"
#include "sim/rng.h"
#include "sys/system.h"
#include "vm/file_io.h"
#include "workloads/apache.h"
#include "workloads/append.h"
#include "workloads/common.h"
#include "workloads/filesweep.h"
#include "workloads/textsearch.h"

using namespace dax;

namespace {

// ---------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Span timestamp. The TSC costs about half a steady_clock read on x86,
 * which keeps the time spent between spans small; each round converts
 * ticks to ns by calibrating against steady_clock over the round.
 */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return std::chrono::steady_clock::now().time_since_epoch().count();
#endif
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Every timed call; the order of kCallNames follows this enum. */
enum class Call : std::uint16_t
{
    SimRun,
    WlStep,
    WlQuantumStart,
    SysConstruct,
    SysNewProcess,
    FsAge,
    FsMakeFile,
    FsOpen,
    FsClose,
    FsInode,
    FsRead,
    FsCreate,
    FsFallocate,
    FsWrite,
    FsFsync,
    FsUnlink,
    VmMmap,
    VmMunmap,
    VmMemRead,
    VmMemWrite,
    VmMsync,
    VmChargeCompute,
    DaxMmap,
    DaxMunmap,
    MemWriteKernel,
    SimRngBelow,
    Count
};

constexpr const char *kCallNames[] = {
    "sim.run",          "wl.step",         "wl.quantum_start",
    "sys.construct",    "sys.new_process", "fs.age",
    "fs.make_file",     "fs.open",         "fs.close",
    "fs.inode",         "fs.read",         "fs.create",
    "fs.fallocate",     "fs.write",        "fs.fsync",
    "fs.unlink",        "vm.mmap",         "vm.munmap",
    "vm.mem_read",      "vm.mem_write",    "vm.msync",
    "vm.charge_compute", "daxvm.mmap",     "daxvm.munmap",
    "mem.write_kernel", "sim.rng_below",
};
static_assert(std::size(kCallNames)
              == static_cast<std::size_t>(Call::Count));

constexpr std::size_t kCalls = static_cast<std::size_t>(Call::Count);

/** Calls made once per round: only their count and total are reported. */
bool
oncePerRound(Call c)
{
    return c == Call::SysConstruct || c == Call::SysNewProcess
        || c == Call::FsAge;
}

struct Span
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Index of the enclosing span, -1 at the top. */
    std::int32_t parent = -1;
    Call call = Call::SimRun;
    /** Simulated thread of the op, -1 outside Task::step. */
    std::int32_t thread = -1;
    /** Op index within the thread. */
    std::uint32_t step = 0;
};

/** In-memory span log of one traced round. */
class Tracer
{
  public:
    std::int32_t
    begin(Call call)
    {
        const auto id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({ticks(), 0, open_, call, thread_, step_});
        open_ = id;
        return id;
    }

    void
    end(std::int32_t id)
    {
        spans_[id].end = ticks();
        open_ = spans_[id].parent;
    }

    /** Tag the spans that follow with op id (@p thread, @p step). */
    void
    setOp(std::int32_t thread, std::uint32_t step)
    {
        thread_ = thread;
        step_ = step;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Drop every span from index @p n on. */
    void truncate(std::size_t n) { spans_.resize(n); }

    /** Forget the spans, keeping the capacity for the next round. */
    void
    clear()
    {
        spans_.clear();
        open_ = -1;
        thread_ = -1;
        step_ = 0;
    }

  private:
    std::vector<Span> spans_;
    std::int32_t open_ = -1;
    std::int32_t thread_ = -1;
    std::uint32_t step_ = 0;
};

/** Non-null only while a traced round runs. */
Tracer *gTracer = nullptr;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Run @p f, recording it as a span named @p call when tracing. */
template <class F>
decltype(auto)
timed(Call call, F &&f)
{
    if (gTracer == nullptr)
        return f();
    struct Scope
    {
        std::int32_t id;
        ~Scope() { gTracer->end(id); }
    } scope{gTracer->begin(call)};
    return f();
}

/** Mean of the middle half of @p v: robust to interrupts, not quantized. */
double
interquartileMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; i++)
        sum += v[i];
    return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

/** The tracer's own host cost, in ticks. */
struct TracerCost
{
    /** Ticks one span adds to its parent's self time. */
    double child = 0.0;
    /** Self ticks of an empty span: tracer work inside its own bounds. */
    double own = 0.0;
};

/**
 * Measure TracerCost on nests of empty spans (four children against
 * none) appended to @p tracer, so they are stored the way the round's
 * spans were. The calibration spans are dropped again.
 */
TracerCost
measureTracerCost(Tracer &tracer)
{
    constexpr int kNests = 20000;
    const std::size_t keep = tracer.spans().size();
    gTracer = &tracer;
    auto parentSelf = [&](int children) {
        std::vector<double> self;
        for (int i = 0; i < kNests; i++) {
            const std::size_t first = tracer.spans().size();
            timed(Call::WlStep, [&] {
                for (int c = 0; c < children; c++)
                    timed(Call::FsRead, [] {});
            });
            const auto &spans = tracer.spans();
            double t = static_cast<double>(spans[first].end
                                           - spans[first].start);
            for (std::size_t c = first + 1; c < spans.size(); c++)
                t -= static_cast<double>(spans[c].end - spans[c].start);
            self.push_back(t);
        }
        return self;
    };
    const std::vector<double> four = parentSelf(4);
    const std::vector<double> none = parentSelf(0);
    gTracer = nullptr;
    tracer.truncate(keep);
    const double own = interquartileMean(none);
    return {(interquartileMean(four) - own) / 4.0, own};
}

/**
 * Self time of every span: its duration minus the durations of its
 * direct children. Children of one span never overlap (the simulator
 * runs on one host thread), so their durations add up.
 */
std::vector<std::int64_t>
selfTicks(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); i++)
        self[i] = static_cast<std::int64_t>(spans[i].end - spans[i].start);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[s.parent] -= static_cast<std::int64_t>(s.end - s.start);
    }
    return self;
}

/** Nearest-rank percentile of @p v (reordered in place); 0 if empty. */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

// ---------------------------------------------------------------------
// Simulated threads
// ---------------------------------------------------------------------

/**
 * A closed-loop simulated thread: one op per step, @p ops in total. An
 * op that throws (map failure, out of space, SIGBUS, EIO) counts as one
 * failed op and the thread moves on to the next.
 */
class OpTask : public sim::Task
{
  public:
    explicit OpTask(std::uint64_t ops) : ops_(ops) {}

    bool
    step(sim::Cpu &cpu) final
    {
        const std::uint64_t index = done_ + failed_;
        if (gTracer != nullptr)
            gTracer->setOp(cpu.threadId(),
                           static_cast<std::uint32_t>(index));
        try {
            timed(Call::WlStep, [&] { op(cpu, index); });
            done_++;
        } catch (const std::exception &) {
            failed_++;
        }
        return done_ + failed_ < ops_;
    }

    std::uint64_t done() const { return done_; }
    std::uint64_t failed() const { return failed_; }

  protected:
    virtual void op(sim::Cpu &cpu, std::uint64_t index) = 0;

  private:
    std::uint64_t ops_;
    std::uint64_t done_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * create -> append -> unlink-previous cycles, wl::Append semantics
 * with fsync-per-append: through DaxVM (fallocate, daxvm mmap,
 * nt-store, msync, async unmap) or through write()+fsync.
 */
class ChurnTask : public OpTask
{
  public:
    ChurnTask(sys::System &system, vm::AddressSpace &as, bool daxvm,
              std::uint64_t bytes, std::uint64_t cycles)
        : OpTask(cycles), system_(system), as_(as), bytes_(bytes)
    {
        access_.interface =
            daxvm ? wl::Interface::DaxVm : wl::Interface::Read;
        access_.asyncUnmap = daxvm;
    }

    std::string name() const override { return "append"; }

  protected:
    void
    op(sim::Cpu &cpu, std::uint64_t index) override
    {
        timed(Call::WlQuantumStart,
              [&] { wl::quantumStart(cpu, system_, access_); });
        const std::string path = "/churn/" + std::to_string(cpu.threadId())
                               + "_" + std::to_string(index);
        fs::FileSystem &fs = system_.fs();
        const fs::Ino ino =
            timed(Call::FsCreate, [&] { return fs.create(cpu, path); });
        if (access_.interface == wl::Interface::DaxVm) {
            if (!timed(Call::FsFallocate,
                       [&] { return fs.fallocate(cpu, ino, 0, bytes_); }))
                throw std::runtime_error("churn: out of space");
            const std::uint64_t va = timed(Call::DaxMmap, [&] {
                return system_.dax()->mmap(cpu, as_, ino, 0, bytes_,
                                           true, access_.daxFlags());
            });
            if (va == 0)
                throw std::runtime_error("churn: map failed");
            timed(Call::VmMemWrite, [&] {
                as_.memWrite(cpu, va, bytes_, mem::Pattern::Seq,
                             mem::WriteMode::NtStore);
            });
            timed(Call::VmMsync, [&] { as_.msync(cpu, va, bytes_); });
            timed(Call::DaxMunmap,
                  [&] { system_.dax()->munmap(cpu, as_, va); });
        } else {
            timed(Call::FsWrite,
                  [&] { fs.write(cpu, ino, 0, nullptr, bytes_); });
            timed(Call::FsFsync, [&] { fs.fsync(cpu, ino); });
        }
        if (!previous_.empty())
            timed(Call::FsUnlink, [&] { fs.unlink(cpu, previous_); });
        previous_ = path;
    }

  private:
    sys::System &system_;
    vm::AddressSpace &as_;
    std::uint64_t bytes_;
    wl::AccessOptions access_;
    std::string previous_;
};

/**
 * ag-style search, wl::Filesweep semantics over POSIX mmap: open, map,
 * scan, unmap, search compute, close.
 */
class SearchTask : public OpTask
{
  public:
    SearchTask(sys::System &system, vm::AddressSpace &as,
               std::vector<std::string> paths)
        : OpTask(paths.size()), system_(system), as_(as),
          paths_(std::move(paths))
    {
        access_.interface = wl::Interface::Mmap;
    }

    std::string name() const override { return "filesweep"; }

  protected:
    void
    op(sim::Cpu &cpu, std::uint64_t index) override
    {
        timed(Call::WlQuantumStart,
              [&] { wl::quantumStart(cpu, system_, access_); });
        const std::string &path = paths_[index];
        const auto open =
            timed(Call::FsOpen, [&] { return system_.open(cpu, path); });
        if (!open)
            throw std::runtime_error("search: missing " + path);
        const fs::Ino ino = open->ino;
        const std::uint64_t size = timed(Call::FsInode, [&] {
            return system_.fs().inode(ino).size;
        });
        const std::uint64_t va = timed(Call::VmMmap, [&] {
            return as_.mmap(cpu, ino, 0, size, false,
                            access_.posixFlags());
        });
        if (va == 0)
            throw std::runtime_error("search: map failed " + path);
        timed(Call::VmMemRead,
              [&] { as_.memRead(cpu, va, size, mem::Pattern::Seq); });
        timed(Call::VmMunmap, [&] { as_.munmap(cpu, va, size); });
        timed(Call::VmChargeCompute, [&] {
            vm::chargeCompute(cpu, system_.cm().searchNsPerByte, size);
        });
        timed(Call::FsClose, [&] { system_.vfs().close(cpu, ino); });
    }

  private:
    sys::System &system_;
    vm::AddressSpace &as_;
    std::vector<std::string> paths_;
    wl::AccessOptions access_;
};

/** Apache static-page requests over read(), wl::apacheServeRequest. */
class WebTask : public OpTask
{
  public:
    WebTask(sys::System &system, const std::vector<fs::Ino> &pages,
            std::uint64_t pageBytes, std::uint64_t requests, sim::Rng rng)
        : OpTask(requests), system_(system), pages_(pages),
          pageBytes_(pageBytes), rng_(rng)
    {}

    std::string name() const override { return "apache"; }

  protected:
    void
    op(sim::Cpu &cpu, std::uint64_t) override
    {
        timed(Call::WlQuantumStart,
              [&] { wl::quantumStart(cpu, system_, access_); });
        const fs::Ino ino = pages_[timed(
            Call::SimRngBelow, [&] { return rng_.below(pages_.size()); })];
        const sim::CostModel &cm = system_.cm();
        cpu.advance(cm.httpRequestOverhead);
        timed(Call::FsInode, [&] { (void)system_.fs().inode(ino); });
        cpu.advance(cm.openBase);
        timed(Call::FsRead, [&] {
            system_.fs().read(cpu, ino, 0, nullptr, pageBytes_);
        });
        cpu.advance(cm.socketSyscall);
        timed(Call::MemWriteKernel, [&] {
            system_.dram().writeKernel(cpu, 0, pageBytes_,
                                       mem::WriteMode::Cached,
                                       mem::Pattern::Seq);
        });
        cpu.advance(cm.closeBase);
    }

  private:
    sys::System &system_;
    const std::vector<fs::Ino> &pages_;
    std::uint64_t pageBytes_;
    sim::Rng rng_;
    wl::AccessOptions access_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Workload sizes; README.md gives the reason for each workload. */
constexpr std::uint64_t kPmemBytes = 2ULL << 30;
constexpr double kChurnFactor = 3.0;
constexpr unsigned kChurnThreads = 16;
/**
 * 16 threads x 400 cycles x 64 KB frees 400 MB. That must stay below
 * the aged image's ~600 MB of free space, because the prezero daemon
 * keeps every freed block for the whole run (README.md, findings).
 */
constexpr std::uint64_t kChurnCycles = 400;
constexpr std::uint64_t kChurnBytes = 64 * 1024;
constexpr unsigned kSearchThreads = 16;
constexpr std::uint64_t kSearchFiles = 8000;
constexpr unsigned kWebThreads = 64;
constexpr std::uint64_t kWebPages = 64;
constexpr std::uint64_t kWebPageBytes = 32 * 1024;
constexpr std::uint64_t kWebRequests = 5000;

/** Inputs derived from the workload seed alone. */
struct Seeds
{
    std::uint64_t aging;
    std::uint64_t corpus;
    std::uint64_t requests;

    explicit Seeds(std::uint64_t seed)
    {
        sim::Rng master(seed);
        aging = master.next();
        corpus = master.next();
        requests = master.next();
    }
};

sys::SystemConfig
systemConfig(unsigned cores)
{
    sys::SystemConfig config;
    config.cores = cores;
    config.pmemBytes = kPmemBytes;
    config.pmemTableBytes = std::max<std::uint64_t>(kPmemBytes / 16,
                                                    128ULL << 20);
    config.dramBytes = 1ULL << 30;
    return config;
}

/**
 * The corpus of wl::makeSourceTreeCorpus(system, "/src/", files, seed),
 * created with one timed System::makeFile per file; the selfcheck
 * proves both produce the same files.
 */
std::vector<std::string>
makeCorpus(sys::System &system, std::uint64_t files, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::string> paths;
    paths.reserve(files);
    for (std::uint64_t i = 0; i < files; i++) {
        std::uint64_t size;
        if (i % 10000 == 9999) {
            size = (16ULL << 20) + rng.below(32ULL << 20);
        } else {
            const double u1 = rng.uniform();
            const double u2 = rng.uniform();
            const double n = std::sqrt(-2.0 * std::log(u1 + 1e-12))
                           * std::cos(6.283185307179586 * u2);
            const double l = std::clamp(13.0 + 1.6 * n, 9.0, 19.0);
            size = static_cast<std::uint64_t>(std::pow(2.0, l));
        }
        std::string path = "/src/" + std::to_string(i);
        timed(Call::FsMakeFile, [&] { system.makeFile(path, size); });
        paths.push_back(std::move(path));
    }
    return paths;
}

/** One round's simulated machine, prepared and ready to run. */
struct Round
{
    std::unique_ptr<sys::System> system;
    std::unique_ptr<vm::AddressSpace> as;
    std::vector<fs::Ino> pages;
    std::vector<OpTask *> tasks;
    /** Setup outcome folded into the digest (aging report etc.). */
    std::string setupReport;
    /** Setup counters reported by the traced run (0 when not aged). */
    std::map<std::string, double> setupCounters = {
        {"fs.aging.created", 0.0}, {"fs.aging.free_extents", 0.0}};
};

void
construct(Round &r, unsigned cores)
{
    r.system = timed(Call::SysConstruct, [&] {
        return std::make_unique<sys::System>(systemConfig(cores));
    });
}

void
newProcess(Round &r)
{
    r.as = timed(Call::SysNewProcess, [&] { return r.system->newProcess(); });
}

template <class T, class... Args>
void
addTask(Round &r, Args &&...args)
{
    auto task = std::make_unique<T>(std::forward<Args>(args)...);
    r.tasks.push_back(task.get());
    const int core = static_cast<int>(r.tasks.size() - 1)
                   % static_cast<int>(r.system->engine().numCores());
    r.system->engine().addThread(std::move(task), core,
                                 r.system->quiesceTime());
}

void
prepareAgedChurn(Round &r, const Seeds &seeds)
{
    construct(r, kChurnThreads);
    fs::AgingConfig aging;
    aging.churnFactor = kChurnFactor;
    aging.seed = seeds.aging;
    const fs::AgingReport report =
        timed(Call::FsAge, [&] { return r.system->age(aging); });
    r.setupReport = report.toString();
    r.setupCounters["fs.aging.created"] =
        static_cast<double>(report.filesCreated);
    r.setupCounters["fs.aging.free_extents"] =
        static_cast<double>(report.freeExtents);
    newProcess(r);
    for (unsigned t = 0; t < kChurnThreads; t++)
        addTask<ChurnTask>(r, *r.system, *r.as, t % 2 == 0, kChurnBytes,
                           kChurnCycles);
}

void
prepareSearch(Round &r, const Seeds &seeds)
{
    construct(r, kSearchThreads);
    const auto corpus = makeCorpus(*r.system, kSearchFiles, seeds.corpus);
    r.setupReport = "corpus=" + std::to_string(corpus.size());
    newProcess(r);
    for (unsigned t = 0; t < kSearchThreads; t++)
        addTask<SearchTask>(r, *r.system, *r.as,
                            wl::sliceForThread(corpus, t, kSearchThreads));
}

void
prepareWeb(Round &r, const Seeds &seeds)
{
    construct(r, kWebThreads);
    for (std::uint64_t i = 0; i < kWebPages; i++) {
        r.pages.push_back(timed(Call::FsMakeFile, [&] {
            return r.system->makeFile("/www/" + std::to_string(i),
                                      kWebPageBytes);
        }));
    }
    r.setupReport = "pages=" + std::to_string(r.pages.size());
    newProcess(r);
    const sim::Rng base(seeds.requests);
    for (unsigned t = 0; t < kWebThreads; t++)
        addTask<WebTask>(r, *r.system, r.pages, kWebPageBytes,
                         kWebRequests, base.stream(t));
}

/** A run-phase counter identity that every correct round satisfies. */
struct Expect
{
    const char *metric;
    /** Expected run-phase delta for a round of @p ops ops. */
    double (*value)(std::uint64_t ops);
};

struct Workload
{
    const char *name;
    /**
     * Rounds a run makes at least, whatever its time budget: enough
     * for a steady median of a round that takes many seconds.
     */
    unsigned minRounds;
    void (*prepare)(Round &, const Seeds &);
    std::vector<Expect> expects;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"aged_churn",
         5,
         prepareAgedChurn,
         {{"fs.creates",
           [](std::uint64_t ops) { return double(ops); }},
          {"fs.unlinks",
           [](std::uint64_t ops) {
               return double(ops - kChurnThreads);
           }},
          {"daxvm.mmap",
           [](std::uint64_t ops) { return double(ops / 2); }}}},
        {"search_mmap",
         3,
         prepareSearch,
         {{"vm.mmap",
           [](std::uint64_t ops) { return double(ops); }},
          {"vm.munmap",
           [](std::uint64_t ops) { return double(ops); }}}},
        {"web_read_64c",
         3,
         prepareWeb,
         {{"fs.read_bytes", [](std::uint64_t ops) {
               return double(ops * kWebPageBytes);
           }}}},
    };
    return all;
}

/** Counters of the traced run, as run-phase deltas of snapshotMetrics(). */
constexpr const char *kCounters[] = {
    "fs.block_allocs",
    "fs.journal.commits",
    "fs.prezeroed_blocks",
    "vm.faults",
    "vm.munmap",
    "daxvm.zombie_flushes",
    "daxvm.table_populates",
    "daxvm.prezero.pending_blocks",
    "tlb.ipis",
    "tlb.invlpg",
    "tlb.full_flushes",
    "arch.mmu.tlb_misses",
    "sim.engine.steps",
    "mem.pmem.read_bytes",
    "mem.pmem.write_bytes",
    "mem.pmem.sparse_pages",
};

double
metricValue(const sim::MetricsSnapshot &snap, const std::string &name)
{
    if (auto it = snap.counters.find(name); it != snap.counters.end())
        return static_cast<double>(it->second);
    return snap.gauge(name);
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct RoundResult
{
    double setupS = 0;
    double runS = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::string digest;
    std::vector<std::string> checkErrors;
    bool traced = false;
    /** Per-layer metrics of a traced round. */
    std::map<std::string, double> layers;
    double nsPerTick = 1.0;
};

/**
 * Per-layer metrics of one traced round from its spans. Every span
 * inside sim.run costs its parent @p cost.child ticks of tracer time
 * and each wl.step span costs itself @p cost.own; what wl.step self
 * time is left after that is the driver's own code, the remainder no
 * layer call accounts for.
 */
void
summarize(RoundResult &res, const std::vector<Span> &spans,
          const TracerCost &cost)
{
    const std::vector<std::int64_t> self = selfTicks(spans);
    std::vector<std::vector<double>> durations(kCalls);
    std::vector<double> selfNs(kCalls, 0.0);
    std::uint64_t leaves = 0;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const auto c = static_cast<std::size_t>(spans[i].call);
        if (spans[i].parent >= 0
            && spans[spans[i].parent].call == Call::WlStep)
            leaves++;
        durations[c].push_back(
            static_cast<double>(spans[i].end - spans[i].start)
            * res.nsPerTick);
        selfNs[c] += static_cast<double>(self[i]) * res.nsPerTick;
    }
    for (std::size_t c = 1; c < kCalls; c++) {
        const std::string name = kCallNames[c];
        auto &d = durations[c];
        double total = 0.0;
        for (const double v : d)
            total += v;
        res.layers[name + ".calls"] = static_cast<double>(d.size());
        res.layers[name + ".s"] = total / 1e9;
        if (!oncePerRound(static_cast<Call>(c))) {
            res.layers[name + ".ns_p50"] = percentile(d, 0.50);
            res.layers[name + ".ns_p99"] = percentile(d, 0.99);
        }
    }
    const auto step = static_cast<std::size_t>(Call::WlStep);
    const auto run = static_cast<std::size_t>(Call::SimRun);
    const double tickS = res.nsPerTick / 1e9;
    const double runSelf = selfNs[run] / 1e9;
    const double stepSelf = selfNs[step] / 1e9;
    const auto steps = static_cast<double>(durations[step].size());
    const double remainder =
        stepSelf
        - (cost.child * static_cast<double>(leaves) + cost.own * steps)
              * tickS;
    const double tracedRun = durations[run].empty()
                               ? 0.0
                               : durations[run].front() / 1e9;
    res.layers["wl.step.self_s"] = stepSelf;
    res.layers["sim.run_self_s"] = runSelf;
    res.layers["trace.run_s"] = tracedRun;
    res.layers["trace.tracer_s"] =
        (cost.child * (steps + static_cast<double>(leaves))
         + cost.own * steps)
        * tickS;
    res.layers["trace.span_child_ns"] = cost.child * res.nsPerTick;
    res.layers["trace.span_own_ns"] = cost.own * res.nsPerTick;
    res.layers["trace.remainder_s"] = remainder;
    res.layers["trace.layer_share"] =
        tracedRun > 0 ? (tracedRun - remainder) / tracedRun : 0.0;
}

/**
 * One round: fresh System, setup, measured run, digest and checks.
 * @p tracer (null = untraced) records the round's spans.
 */
RoundResult
runRound(const Workload &w, std::uint64_t seed, Tracer *tracer)
{
    RoundResult res;
    res.traced = tracer != nullptr;
    if (tracer != nullptr) {
        tracer->clear();
        gTracer = tracer;
    }
    const std::uint64_t tick0 = ticks();
    const double t0 = wallSeconds();

    Round r;
    w.prepare(r, Seeds(seed));
    const double t1 = wallSeconds();
    const sim::MetricsSnapshot before = r.system->snapshotMetrics();

    const double t2 = wallSeconds();
    const sim::Time start = r.system->quiesceTime();
    const sim::Time makespan =
        timed(Call::SimRun, [&] { return r.system->engine().run(); });
    const double t3 = wallSeconds();
    const std::uint64_t tick1 = ticks();
    gTracer = nullptr;

    res.setupS = t1 - t0;
    res.runS = t3 - t2;
    std::string text = std::string("workload=") + w.name
                     + "\nseed=" + std::to_string(seed) + "\nsetup="
                     + r.setupReport + "\nmakespan="
                     + std::to_string(makespan - start) + "\n";
    for (std::size_t t = 0; t < r.tasks.size(); t++) {
        text += "thread" + std::to_string(t) + "="
              + std::to_string(r.tasks[t]->done()) + "/"
              + std::to_string(r.tasks[t]->failed()) + "\n";
        res.ops += r.tasks[t]->done() + r.tasks[t]->failed();
        res.failed += r.tasks[t]->failed();
    }
    const sim::MetricsSnapshot after = r.system->snapshotMetrics();
    text += after.toString();
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    res.digest = hex;

    for (const Expect &e : w.expects) {
        const double got =
            metricValue(after, e.metric) - metricValue(before, e.metric);
        const double want = e.value(res.ops);
        if (got != want) {
            res.checkErrors.push_back(
                std::string(e.metric) + ": run-phase delta "
                + std::to_string(got) + ", expected "
                + std::to_string(want));
        }
    }

    if (tracer != nullptr) {
        res.nsPerTick = (t3 - t0) * 1e9
                      / static_cast<double>(tick1 - tick0);
        summarize(res, tracer->spans(), measureTracerCost(*tracer));
        for (const auto &[name, value] : r.setupCounters)
            res.layers[name] = value;
        for (const char *name : kCounters) {
            res.layers[name] =
                metricValue(after, name) - metricValue(before, name);
        }
        const double steps = res.layers["sim.engine.steps"];
        res.layers["sim.self_ns_per_step"] =
            steps > 0 ? res.layers["sim.run_self_s"] * 1e9 / steps : 0.0;
    }
    return res;
}

const char *
layerUnit(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n
            && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s") || ends(".s"))
        return "s";
    if (ends(".ns_p50") || ends(".ns_p99") || ends("_ns_per_step")
        || ends("_ns"))
        return "ns";
    if (ends("_bytes"))
        return "bytes";
    if (ends("_share"))
        return "ratio";
    if (ends("overhead"))
        return "ratio";
    return "count";
}

/** Write @p spans as TSV, times in ns from the first span's start. */
void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           double nsPerTick)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    const std::vector<std::int64_t> self = selfTicks(spans);
    const std::uint64_t origin = spans.empty() ? 0 : spans.front().start;
    auto ns = [&](double t) {
        return static_cast<long long>(std::llround(t * nsPerTick));
    };
    out << "id\tparent\tname\tthread\tstep\tstart_ns\tend_ns\tself_ns\n";
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        out << i << '\t' << s.parent << '\t'
            << kCallNames[static_cast<std::size_t>(s.call)] << '\t'
            << s.thread << '\t' << s.step << '\t'
            << ns(static_cast<double>(s.start - origin)) << '\t'
            << ns(static_cast<double>(s.end - origin)) << '\t'
            << ns(static_cast<double>(self[i])) << '\n';
    }
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

sim::Json
toJsonArray(const std::vector<double> &v)
{
    sim::Json arr = sim::Json::array();
    for (const double x : v)
        arr.push(sim::Json(x));
    return arr;
}

/** Rounds stop once this much wall time is spent, whatever the budget. */
constexpr double kHardLimitS = 150.0;

int
runBenchmark(const Workload &w, std::uint64_t seed, double seconds,
             bool trace, const std::string &spansPath)
{
    const double start = wallSeconds();
    unsigned traced = 0;
    Tracer tracer;
    double nsPerTick = 1.0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<double> setupS, runS, opsPerS, tracedRunS;
    std::map<std::string, std::vector<double>> layers;
    std::string digest;
    bool digestsAgree = true;

    for (unsigned i = 0;; i++) {
        const double roundStart = wallSeconds();
        RoundResult res = runRound(
            w, seed, trace && i % 2 == 1 ? &tracer : nullptr);
        ops += res.ops;
        failed += res.failed;
        for (const auto &e : res.checkErrors) {
            if (std::find(errors.begin(), errors.end(), e) == errors.end())
                errors.push_back(e);
        }
        if (digest.empty())
            digest = res.digest;
        else if (res.digest != digest)
            digestsAgree = false;
        if (res.traced) {
            traced++;
            tracedRunS.push_back(res.runS);
            for (const auto &[name, value] : res.layers)
                layers[name].push_back(value);
            nsPerTick = res.nsPerTick;
        } else {
            setupS.push_back(res.setupS);
            runS.push_back(res.runS);
            opsPerS.push_back(static_cast<double>(res.ops) / res.runS);
        }
        const double now = wallSeconds();
        const unsigned done = i + 1;
        const bool enough = now - start >= seconds && done >= w.minRounds
                         && (!trace || traced > 0);
        if (enough || now - start + 1.5 * (now - roundStart) > kHardLimitS)
            break;
    }
    if (!digestsAgree)
        errors.push_back("rounds of one seed produced different digests");

    sim::Json out = sim::Json::object();
    out["workload"] = sim::Json(w.name);
    out["seed"] = sim::Json(seed);
    out["rounds"] = sim::Json(static_cast<std::uint64_t>(setupS.size()
                                                         + traced));
    out["traced_rounds"] = sim::Json(static_cast<std::uint64_t>(traced));
    out["digest"] = sim::Json(digest);
    sim::Json errs = sim::Json::array();
    for (const auto &e : errors)
        errs.push(sim::Json(e));
    out["check_errors"] = std::move(errs);
    out["ops_attempted"] = sim::Json(ops);
    out["ops_failed"] = sim::Json(failed);
    out["setup_s"] = sim::Json(median(setupS));
    out["run_s"] = sim::Json(median(runS));
    out["ops_per_s"] = sim::Json(median(opsPerS));
    out["peak_rss_mb"] = sim::Json(peakRssMb());
    out["round_setup_s"] = toJsonArray(setupS);
    out["round_run_s"] = toJsonArray(runS);
    out["compiler"] = sim::Json(HOSTBENCH_CXX_ID);
    out["cxx_flags"] = sim::Json(HOSTBENCH_CXX_FLAGS);
    if (trace) {
        sim::Json lj = sim::Json::object();
        auto put = [&](const std::string &name, double value) {
            sim::Json m = sim::Json::object();
            m["value"] = sim::Json(value);
            m["unit"] = sim::Json(layerUnit(name));
            lj[name] = std::move(m);
        };
        for (const auto &[name, values] : layers)
            put(name, median(values));
        const double untraced = median(runS);
        put("trace.untraced_run_s", untraced);
        put("trace.overhead",
            untraced > 0 ? median(tracedRunS) / untraced - 1.0 : 0.0);
        out["layers"] = std::move(lj);
        if (!spansPath.empty())
            writeSpans(spansPath, tracer.spans(), nsPerTick);
    }
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Selfcheck
// ---------------------------------------------------------------------

int selfcheckFailures = 0;

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

void
expect(bool ok, const std::string &what)
{
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        selfcheckFailures++;
}

void
checkSelfTime()
{
    // sim.run [0,100] > step [10,90] > {read [20,30], write [40,80]},
    // and write's child [50,60]; a second root [120,130].
    std::vector<Span> s(6);
    s[0] = {0, 100, -1, Call::SimRun};
    s[1] = {10, 90, 0, Call::WlStep};
    s[2] = {20, 30, 1, Call::FsRead};
    s[3] = {40, 80, 1, Call::FsWrite};
    s[4] = {50, 60, 3, Call::FsFsync};
    s[5] = {120, 130, -1, Call::FsAge};
    const auto self = selfTicks(s);
    expect(self == std::vector<std::int64_t>{20, 30, 10, 30, 10, 10},
           "self time = duration minus direct children");

    RoundResult res;
    summarize(res, s, {});
    expect(near(res.layers["sim.run_self_s"], 20e-9),
           "sim.run_self_s = run minus steps");
    expect(near(res.layers["trace.remainder_s"], 30e-9),
           "remainder = step self time");
    expect(near(res.layers["trace.layer_share"], 0.7),
           "layer share = (run - remainder) / run");
    expect(near(res.layers["fs.write.s"], 40e-9), "call total is inclusive");
    // 5 ticks per child span (one step, two leaves) plus 2 of the
    // step's own; the leaves' 10 and the step's 2 come off its self.
    summarize(res, s, {5.0, 2.0});
    expect(near(res.layers["trace.tracer_s"], 17e-9), "tracer time");
    expect(near(res.layers["trace.remainder_s"], 18e-9),
           "remainder = step self minus tracer time in it");
    expect(near(res.layers["trace.layer_share"], 0.82),
           "layer share net of tracer time");

    std::vector<double> v;
    for (int i = 1; i <= 100; i++)
        v.push_back(101 - i);
    expect(percentile(v, 0.5) == 50 && percentile(v, 0.99) == 99,
           "nearest-rank p50/p99");
    std::vector<double> one{7};
    expect(percentile(one, 0.99) == 7, "single-sample percentile");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5,
           "median");
}

/** Run @p tasks on @p system; returns makespan + metrics text. */
std::string
runTasks(sys::System &system, std::vector<std::unique_ptr<sim::Task>> tasks)
{
    const sim::Time start = system.quiesceTime();
    int core = 0;
    for (auto &task : tasks) {
        system.engine().addThread(std::move(task), core, start);
        core = (core + 1) % static_cast<int>(system.engine().numCores());
    }
    const sim::Time makespan = system.engine().run();
    return std::to_string(makespan - start) + "\n"
         + system.snapshotMetrics().toString();
}

/** The driver's tasks reproduce the wl:: workloads bit for bit. */
void
checkEquivalence()
{
    {
        sys::System a(systemConfig(4)), b(systemConfig(4));
        auto asA = a.newProcess(), asB = b.newProcess();
        std::vector<std::unique_ptr<sim::Task>> ta, tb;
        for (unsigned t = 0; t < 4; t++) {
            ta.push_back(std::make_unique<ChurnTask>(a, *asA, t % 2 == 0,
                                                     kChurnBytes, 40));
            wl::Append::Config c;
            c.prefix = "/churn/";
            c.appendBytes = kChurnBytes;
            c.files = 40;
            c.syncEach = true;
            c.access.interface =
                t % 2 == 0 ? wl::Interface::DaxVm : wl::Interface::Read;
            c.access.asyncUnmap = t % 2 == 0;
            tb.push_back(std::make_unique<wl::Append>(b, *asB, c));
        }
        expect(runTasks(a, std::move(ta)) == runTasks(b, std::move(tb)),
               "churn task == wl::Append");
    }
    {
        sys::System a(systemConfig(4)), b(systemConfig(4));
        const auto pa = makeCorpus(a, 3000, 11);
        const auto pb = wl::makeSourceTreeCorpus(b, "/src/", 3000, 11);
        bool same = pa == pb;
        for (std::size_t i = 0; same && i < pa.size(); i++) {
            same = a.fs().inode(*a.fs().lookupPath(pa[i])).size
                == b.fs().inode(*b.fs().lookupPath(pb[i])).size;
        }
        expect(same, "corpus == wl::makeSourceTreeCorpus");
        auto asA = a.newProcess(), asB = b.newProcess();
        std::vector<std::unique_ptr<sim::Task>> ta, tb;
        for (unsigned t = 0; t < 4; t++) {
            ta.push_back(std::make_unique<SearchTask>(
                a, *asA, wl::sliceForThread(pa, t, 4)));
            wl::Filesweep::Config c;
            c.paths = wl::sliceForThread(pb, t, 4);
            c.access.interface = wl::Interface::Mmap;
            c.computeNsPerByte = b.cm().searchNsPerByte;
            tb.push_back(std::make_unique<wl::Filesweep>(b, *asB, c));
        }
        expect(runTasks(a, std::move(ta)) == runTasks(b, std::move(tb)),
               "search task == wl::Filesweep");
    }
    {
        sys::System a(systemConfig(8)), b(systemConfig(8));
        std::vector<fs::Ino> pages;
        for (std::uint64_t i = 0; i < 16; i++)
            pages.push_back(
                a.makeFile("/www/" + std::to_string(i), kWebPageBytes));
        const auto pb = wl::makeWebPages(b, "/www/", 16, kWebPageBytes);
        auto asA = a.newProcess(), asB = b.newProcess();
        std::vector<std::unique_ptr<sim::Task>> ta, tb;
        for (unsigned t = 0; t < 8; t++) {
            ta.push_back(std::make_unique<WebTask>(
                a, pages, kWebPageBytes, 300, sim::Rng(t + 1)));
            wl::ApacheWorker::Config c;
            c.pages = pb;
            c.pageBytes = kWebPageBytes;
            c.requests = 300;
            c.access.interface = wl::Interface::Read;
            c.seed = t + 1;
            tb.push_back(std::make_unique<wl::ApacheWorker>(b, *asB, c));
        }
        expect(runTasks(a, std::move(ta)) == runTasks(b, std::move(tb)),
               "web task == wl::ApacheWorker");
    }
}

int
selfcheck()
{
    checkSelfTime();
    checkEquivalence();
    std::printf("{\"selfcheck_failures\": %d}\n", selfcheckFailures);
    return selfcheckFailures == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n"
                 "       hostbench --selfcheck\n"
                 "workloads:");
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--selfcheck")
            return selfcheck();
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace")
            trace = val == "1";
        else if (arg == "--spans")
            spans = val;
        else
            return usage();
    }
    for (const auto &w : workloads()) {
        if (workload == w.name)
            return runBenchmark(w, seed, seconds, trace, spans);
    }
    return usage();
}
