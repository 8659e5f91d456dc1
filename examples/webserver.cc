/**
 * @file
 * Webserver scenario (the paper's headline use case): an Apache-style
 * multi-threaded server serving small static pages from PMem, run
 * over every interface to show the scalability story end to end.
 *
 * Demonstrates: building multi-threaded workloads on the engine,
 * DaxVM's ephemeral + async flags, and reading lock/IPI statistics to
 * explain the results.
 */
#include <cstdio>
#include <vector>

#include "sys/system.h"
#include "workloads/apache.h"

using namespace dax;
using namespace dax::wl;

namespace {

double
serve(const char *label, const AccessOptions &access, unsigned threads)
{
    sys::SystemConfig config;
    config.cores = threads;
    config.pmemBytes = 2ULL << 30;
    sys::System system(config);

    auto pages = makeWebPages(system, "/www/page", 64, 32 * 1024);
    auto server = system.newProcess();

    std::vector<ApacheWorker *> workers;
    for (unsigned t = 0; t < threads; t++) {
        ApacheWorker::Config wc;
        wc.pages = pages;
        wc.requests = 2000;
        wc.access = access;
        wc.seed = t + 1;
        auto worker =
            std::make_unique<ApacheWorker>(system, *server, wc);
        workers.push_back(worker.get());
        system.engine().addThread(std::move(worker),
                                  static_cast<int>(t));
    }
    const sim::Time makespan = system.engine().run();
    std::uint64_t requests = 0;
    for (auto *w : workers)
        requests += w->requestsDone();
    const double rps = static_cast<double>(requests)
                     / (static_cast<double>(makespan) / 1e9);

    const auto &sem = server->mmapSem();
    std::printf("%-16s %2u threads: %8.0f req/s   "
                "(mmap_sem writer wait %6.1f ms, IPIs %llu)\n",
                label, threads, rps,
                static_cast<double>(sem.writeStats().waitNs) / 1e6,
                (unsigned long long)system.metrics().counterValue(
                    "tlb.ipis"));
    return rps;
}

} // namespace

int
main()
{
    std::printf("Serving 32KB pages from PMem, 2000 requests/thread\n");
    std::printf("------------------------------------------------\n");

    AccessOptions read;
    read.interface = Interface::Read;
    AccessOptions mmap;
    mmap.interface = Interface::Mmap;
    AccessOptions daxvm;
    daxvm.interface = Interface::DaxVm;
    daxvm.ephemeral = true;
    daxvm.asyncUnmap = true;

    for (unsigned threads : {1u, 4u, 16u}) {
        serve("read()", read, threads);
        serve("mmap()", mmap, threads);
        serve("daxvm_mmap()", daxvm, threads);
        std::printf("\n");
    }
    std::printf("Note how mmap() stops scaling (writer-locked munmap +"
                " shootdowns)\nwhile daxvm_mmap() keeps scaling and "
                "ends up past read().\n");
    return 0;
}
