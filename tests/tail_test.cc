/**
 * @file
 * Tail-latency forensics tests (tools/tail_analysis.h, docs/tracing.md):
 * critical-path extraction on a synthetic trace with a hand-computed
 * answer, exact decomposition (residual zero) on a real traced
 * open-loop mix with its flow chains, the exemplar reservoir surviving ring overflow, and windowed timeline
 * snapshots whose per-window deltas sum to the totals.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/metrics.h"
#include "sim/span_trace.h"
#include "sys/system.h"
#include "tools/tail_analysis.h"
#include "workloads/tenant.h"

using namespace dax;
using namespace dax::wl;

namespace {

/**
 * Hand-written trace with a known critical path. Times are Chrome
 * microseconds; in ns: tenant t1's request [500, 900) on track 5
 * establishes the (pid 1, track 5) -> t1 mapping, then tenant t0's
 * request on track 3 arrives at 400, starts at 1000, and finishes at
 * 2000 with lock_wait [1100,1300), shootdown [1400,1800) containing
 * journal_commit [1500,1600), mce_repair [1850,1900), and an inbound
 * `ipi` flow arrow from track 5 at 1700.
 *
 * Expected t0 partition (innermost-priority): queue 600, lock 200,
 * shootdown 300 (400 minus the nested journal 100), journal 100,
 * media 50, service 350; latency 1600 = sum exactly.
 */
const char *kSyntheticTrace = R"({"traceEvents":[
{"ph":"B","pid":1,"tid":5,"ts":0.500,"name":"request","args":{"detail":"tenant=t1 seq=0 arr=300"}},
{"ph":"E","pid":1,"tid":5,"ts":0.900,"name":"request"},
{"ph":"B","pid":1,"tid":3,"ts":1.000,"name":"request","args":{"detail":"tenant=t0 seq=7 arr=400"}},
{"ph":"B","pid":1,"tid":3,"ts":1.100,"name":"lock_wait"},
{"ph":"E","pid":1,"tid":3,"ts":1.300,"name":"lock_wait"},
{"ph":"B","pid":1,"tid":3,"ts":1.400,"name":"shootdown"},
{"ph":"B","pid":1,"tid":3,"ts":1.500,"name":"journal_commit"},
{"ph":"E","pid":1,"tid":3,"ts":1.600,"name":"journal_commit"},
{"ph":"f","bp":"e","pid":1,"tid":3,"ts":1.700,"name":"ipi","id":"0x1000005000001"},
{"ph":"E","pid":1,"tid":3,"ts":1.800,"name":"shootdown"},
{"ph":"B","pid":1,"tid":3,"ts":1.850,"name":"mce_repair"},
{"ph":"E","pid":1,"tid":3,"ts":1.900,"name":"mce_repair"},
{"ph":"E","pid":1,"tid":3,"ts":2.000,"name":"request"}
],
"daxvmRequestExemplars":[
{"pid":1,"group":"t0","seq":7,"arrival_ns":400,"start_ns":1000,"done_ns":2000,"latency_ns":1600,"track":3,"truncated":false,"events":[
{"ph":"B","pid":1,"tid":3,"ts":1.000,"name":"request"},
{"ph":"B","pid":1,"tid":3,"ts":1.100,"name":"lock_wait"},
{"ph":"E","pid":1,"tid":3,"ts":1.300,"name":"lock_wait"},
{"ph":"B","pid":1,"tid":3,"ts":1.400,"name":"shootdown"},
{"ph":"B","pid":1,"tid":3,"ts":1.500,"name":"journal_commit"},
{"ph":"E","pid":1,"tid":3,"ts":1.600,"name":"journal_commit"},
{"ph":"f","bp":"e","pid":1,"tid":3,"ts":1.700,"name":"ipi","id":"0x1000005000001"},
{"ph":"E","pid":1,"tid":3,"ts":1.800,"name":"shootdown"},
{"ph":"B","pid":1,"tid":3,"ts":1.850,"name":"mce_repair"},
{"ph":"E","pid":1,"tid":3,"ts":1.900,"name":"mce_repair"},
{"ph":"E","pid":1,"tid":3,"ts":2.000,"name":"request"}
]}
]})";

tools::TailReportData
analyzeText(const std::string &text)
{
    std::string error;
    const sim::Json doc = sim::Json::parse(text, &error);
    EXPECT_EQ(error, "");
    return tools::analyzeTailTrace(doc);
}

sys::SystemConfig
testConfig()
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 1ULL << 30;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 512ULL << 20;
    return config;
}

/**
 * Miniature fig10-style open-loop mix (3 tenants, 200 requests each)
 * with full span tracing on. Leaves the global recorder holding the
 * run's events and exemplars; @return the Chrome trace export.
 */
std::string
runTracedMix(std::size_t capacity = 1 << 16)
{
    sim::SpanRecorder::get().reset();
    sim::SpanRecorder::get().enableAll();
    sim::SpanRecorder::get().setCapacity(capacity);

    sys::System system(testConfig());

    std::vector<TenantSpec> specs(3);
    TenantSpec &apache = specs[0];
    apache.name = "apache";
    apache.kind = TenantKind::Apache;
    apache.requests = 200;
    apache.servers = 2;
    apache.sloNs = 300000;
    apache.arrival.kind = ArrivalKind::Poisson;
    apache.arrival.ratePerSec = 150000.0;
    apache.arrival.clients = 8;
    apache.pageCount = 16;
    apache.access.interface = Interface::DaxVm;
    apache.access.ephemeral = true;
    apache.access.asyncUnmap = true;
    apache.access.nosync = true;

    TenantSpec &predis = specs[1];
    predis.name = "predis";
    predis.kind = TenantKind::PRedis;
    predis.requests = 200;
    predis.servers = 2;
    predis.sloNs = 100000;
    predis.arrival.kind = ArrivalKind::Bursty;
    predis.arrival.ratePerSec = 400000.0;
    predis.arrival.clients = 8;
    predis.storeBytes = 4ULL << 20;
    predis.indexBytes = 512ULL << 10;
    predis.access.interface = Interface::DaxVm;
    predis.access.nosync = true;

    TenantSpec &ycsb = specs[2];
    ycsb.name = "ycsb";
    ycsb.kind = TenantKind::Ycsb;
    ycsb.requests = 200;
    ycsb.servers = 2;
    ycsb.sloNs = 1000000;
    ycsb.arrival.kind = ArrivalKind::Diurnal;
    ycsb.arrival.ratePerSec = 50000.0;
    ycsb.arrival.clients = 8;
    ycsb.records = 400;
    ycsb.access.interface = Interface::DaxVm;
    ycsb.access.nosync = true;

    sim::Rng master(99);
    std::vector<std::unique_ptr<Tenant>> tenants;
    for (std::size_t t = 0; t < specs.size(); t++) {
        sim::Rng stream = master;
        for (std::size_t j = 0; j <= t; j++)
            stream.longJump();
        tenants.push_back(
            std::make_unique<Tenant>(system, specs[t], stream));
    }

    for (std::size_t t = 0; t < tenants.size(); t++) {
        system.engine().addThread(tenants[t]->makeGenTask(),
                                  static_cast<int>(t));
        if (auto preload = tenants[t]->makePreloadTask())
            system.engine().addThread(std::move(preload),
                                      static_cast<int>(t));
    }
    system.engine().run();

    const sim::Time base = system.quiesceTime();
    int core = 0;
    for (auto &tenant : tenants) {
        tenant->beginService(base);
        for (auto &server : tenant->makeServers()) {
            system.engine().addThread(std::move(server), core, base);
            core = (core + 1)
                 % static_cast<int>(system.engine().numCores());
        }
    }
    system.engine().run();
    return sim::SpanRecorder::get().chromeTraceString();
}

/** Sandbox the global tracer: every test starts and ends pristine. */
class TailTest : public ::testing::Test
{
  protected:
    void SetUp() override { sim::SpanRecorder::get().reset(); }
    void TearDown() override { sim::SpanRecorder::get().reset(); }
};

} // namespace

TEST_F(TailTest, SyntheticTraceKnownAnswer)
{
    const tools::TailReportData data = analyzeText(kSyntheticTrace);

    EXPECT_TRUE(data.problems.empty())
        << (data.problems.empty() ? "" : data.problems.front());
    EXPECT_EQ(data.events, 13u);
    EXPECT_EQ(data.requestsParsed, 2u);
    EXPECT_EQ(data.flowStarts, 0u);
    EXPECT_EQ(data.flowSteps, 0u);
    EXPECT_EQ(data.flowEnds, 1u);
    EXPECT_EQ(data.dropped, 0u);
    EXPECT_TRUE(data.attributionReliable());

    // Track -> tenant map recovered from the request details.
    ASSERT_EQ(data.trackTenants.size(), 2u);
    EXPECT_EQ(data.trackTenants.at({1, 3}), "t0");
    EXPECT_EQ(data.trackTenants.at({1, 5}), "t1");

    // Hand-computed partition for t0 (see kSyntheticTrace comment).
    const tools::TenantTail &t0 = data.tenants.at("t0");
    EXPECT_EQ(t0.requests, 1u);
    EXPECT_EQ(t0.segs.queueNs, 600u);
    EXPECT_EQ(t0.segs.lockNs, 200u);
    EXPECT_EQ(t0.segs.shootdownNs, 300u);
    EXPECT_EQ(t0.segs.journalNs, 100u);
    EXPECT_EQ(t0.segs.mediaNs, 50u);
    EXPECT_EQ(t0.segs.serviceNs, 350u);
    EXPECT_EQ(t0.latencyTotalNs, 1600u);
    EXPECT_EQ(t0.latencyMaxNs, 1600u);
    EXPECT_EQ(t0.segs.totalNs(), t0.latencyTotalNs); // exact partition

    // t1: no instrumented children, everything is queue + service.
    const tools::TenantTail &t1 = data.tenants.at("t1");
    EXPECT_EQ(t1.segs.queueNs, 200u);
    EXPECT_EQ(t1.segs.serviceNs, 400u);
    EXPECT_EQ(t1.segs.totalNs(), 600u);

    // The preserved exemplar decomposes identically, with the inbound
    // ipi flow arrow attributed to its initiating tenant.
    ASSERT_EQ(data.exemplars.size(), 1u);
    const tools::RequestPath &p = data.exemplars.front();
    EXPECT_EQ(p.tenant, "t0");
    EXPECT_EQ(p.seq, 7u);
    EXPECT_EQ(p.latencyNs, 1600u);
    EXPECT_EQ(p.segs.queueNs, 600u);
    EXPECT_EQ(p.segs.lockNs, 200u);
    EXPECT_EQ(p.segs.shootdownNs, 300u);
    EXPECT_EQ(p.segs.journalNs, 100u);
    EXPECT_EQ(p.segs.mediaNs, 50u);
    EXPECT_EQ(p.segs.serviceNs, 350u);
    EXPECT_EQ(p.residualNs, 0);
    EXPECT_FALSE(p.truncated);
    ASSERT_EQ(p.disruptedBy.size(), 1u);
    EXPECT_EQ(p.disruptedBy.at("t1"), 1u);

    EXPECT_EQ(tools::validateTailReport(data), "");
    const std::string report = tools::formatTailReport(data);
    EXPECT_NE(report.find("t0"), std::string::npos);
    EXPECT_EQ(report.find("refused"), std::string::npos);
}

TEST_F(TailTest, AggregateAttributionRefusedOnDroppedEvents)
{
    // Same trace plus the recorder's drop metadata: whole-trace
    // aggregates are biased and must be refused; the exemplar table
    // (copied out of the ring at completion) survives.
    std::string text = kSyntheticTrace;
    const std::string marker = "{\"traceEvents\":[";
    text.replace(text.find(marker), marker.size(),
                 marker
                     + std::string("{\"ph\":\"M\",\"pid\":1,"
                                   "\"name\":\"daxvm_dropped_events\","
                                   "\"args\":{\"value\":5}},"));
    const tools::TailReportData data = analyzeText(text);

    EXPECT_EQ(data.dropped, 5u);
    EXPECT_FALSE(data.attributionReliable());
    const std::string report = tools::formatTailReport(data);
    EXPECT_NE(report.find("aggregate attribution refused"),
              std::string::npos);
    EXPECT_NE(report.find("t0"), std::string::npos); // exemplars stay
    // Exemplars are exempt from the drop rule, so validation passes.
    EXPECT_EQ(tools::validateTailReport(data), "");
}

TEST_F(TailTest, RealRunDecompositionSumsMatchLatencyExactly)
{
    const std::string text = runTracedMix();
    const tools::TailReportData data = analyzeText(text);

    EXPECT_TRUE(data.problems.empty())
        << (data.problems.empty() ? "" : data.problems.front());
    EXPECT_EQ(data.requestsParsed, 600u); // 3 tenants x 200
    EXPECT_EQ(data.dropped, 0u);
    EXPECT_GT(data.flowSteps, 0u); // open-loop claim chains
    EXPECT_GT(data.flowStarts, 0u);
    ASSERT_FALSE(data.exemplars.empty());

    // The acceptance bar: every preserved request's segment sum equals
    // its recorded latency_ns exactly - residual zero, not "small".
    for (const tools::RequestPath &p : data.exemplars) {
        ASSERT_FALSE(p.truncated);
        EXPECT_EQ(p.residualNs, 0) << p.tenant << "/" << p.seq;
        EXPECT_EQ(p.segs.totalNs(), p.latencyNs)
            << p.tenant << "/" << p.seq;
    }

    // Whole-trace aggregates partition exactly too (same closeSpan
    // arithmetic, summed over all 600 requests).
    for (const auto &[tenant, tt] : data.tenants) {
        EXPECT_EQ(tt.segs.totalNs(), tt.latencyTotalNs) << tenant;
    }
    EXPECT_EQ(tools::validateTailReport(data), "");
}

TEST_F(TailTest, ExemplarReservoirSurvivesRingOverflow)
{
    // A 96-event ring cannot hold even one tenant's request stream,
    // so the ring laps; the reservoir must still hold deterministic,
    // latency-ordered top-K span trees per tenant.
    runTracedMix(/*capacity=*/96);
    const sim::SpanRecorder &rec = sim::SpanRecorder::get();
    EXPECT_GT(rec.droppedCount(), 0u);

    const std::vector<sim::SpanExemplar> first = rec.exemplars();
    ASSERT_FALSE(first.empty());
    std::map<std::pair<std::uint32_t, std::string>, std::size_t> perKey;
    std::map<std::pair<std::uint32_t, std::string>, std::uint64_t>
        prevLatency;
    for (const sim::SpanExemplar &ex : first) {
        const auto key = std::make_pair(ex.pid, ex.group);
        EXPECT_LT(perKey[key]++, 8u) << ex.group; // kExemplarTopK
        const auto it = prevLatency.find(key);
        if (it != prevLatency.end()) {
            EXPECT_LE(ex.latencyNs, it->second) << ex.group;
        }
        prevLatency[key] = ex.latencyNs;
        EXPECT_EQ(ex.latencyNs, ex.doneNs - ex.arrivalNs);
        if (!ex.truncated) {
            EXPECT_FALSE(ex.events.empty());
        }
    }

    // Identical rerun -> identical reservoir, overflow and all.
    runTracedMix(/*capacity=*/96);
    const std::vector<sim::SpanExemplar> second =
        sim::SpanRecorder::get().exemplars();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); i++) {
        EXPECT_EQ(first[i].group, second[i].group);
        EXPECT_EQ(first[i].seq, second[i].seq);
        EXPECT_EQ(first[i].latencyNs, second[i].latencyNs);
        EXPECT_EQ(first[i].truncated, second[i].truncated);
        EXPECT_EQ(first[i].events.size(), second[i].events.size());
    }
}

TEST_F(TailTest, TimelineWindowDeltasSumToTotals)
{
    sim::MetricsRegistry registry;
    sim::Counter requests = registry.counter("t.requests");
    sim::LatencyHistogram latency = registry.histogram("t.latency_ns");
    registry.counter("other.ignored").add(7); // filtered by prefix

    sim::MetricsTimeline::Config cfg;
    cfg.windowNs = 1000;
    cfg.prefix = "t.";
    sim::MetricsTimeline timeline(registry, cfg);

    timeline.tick(0); // baseline
    requests.add(3);
    latency.record(100);
    latency.record(300);
    timeline.tick(1500); // rolls [0, 1000)
    requests.add(2);
    latency.record(700);
    timeline.tick(5500); // rolls [1000, 2000), skips empty windows
    timeline.close(6000);
    EXPECT_TRUE(timeline.closed());
    timeline.close(9000); // idempotent

    const sim::Json run = timeline.toJson();
    EXPECT_EQ(run.find("window_ns")->asUint(), 1000u);
    EXPECT_EQ(run.find("truncated_windows")->asUint(), 0u);

    const sim::Json *windows = run.find("windows");
    ASSERT_NE(windows, nullptr);
    ASSERT_EQ(windows->items().size(), 2u);
    const sim::Json &w0 = windows->items()[0];
    const sim::Json &w1 = windows->items()[1];
    EXPECT_EQ(w0.find("start_ns")->asUint(), 0u);
    EXPECT_EQ(w1.find("start_ns")->asUint(), 1000u);
    EXPECT_EQ(w0.find("counters")->find("t.requests")->asUint(), 3u);
    EXPECT_EQ(w1.find("counters")->find("t.requests")->asUint(), 2u);
    const sim::Json *h0 = w0.find("histograms")->find("t.latency_ns");
    const sim::Json *h1 = w1.find("histograms")->find("t.latency_ns");
    ASSERT_NE(h0, nullptr);
    ASSERT_NE(h1, nullptr);
    EXPECT_EQ(h0->find("count")->asUint(), 2u);
    EXPECT_EQ(h0->find("sum")->asUint(), 400u);
    EXPECT_EQ(h1->find("count")->asUint(), 1u);
    EXPECT_EQ(h1->find("sum")->asUint(), 700u);

    // Windows reconcile with the totals; the off-prefix counter never
    // leaks in.
    const sim::Json *totals = run.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->find("counters")->find("t.requests")->asUint(),
              5u);
    EXPECT_EQ(totals->find("counters")->find("other.ignored"), nullptr);
    const sim::Json *ht = totals->find("histograms")->find("t.latency_ns");
    ASSERT_NE(ht, nullptr);
    EXPECT_EQ(ht->find("count")->asUint(), 3u);
    EXPECT_EQ(ht->find("sum")->asUint(), 1100u);
}
