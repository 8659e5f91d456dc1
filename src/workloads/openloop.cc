/**
 * @file
 * Open-loop arrival generation and serving (see openloop.h).
 */
#include "workloads/openloop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/span_trace.h"
#include "sys/system.h"
#include "workloads/common.h"

namespace dax::wl {

namespace {

/** Exponential variate with mean @p meanNs, >= 1 ns. */
sim::Time
expGap(sim::Rng &rng, double meanNs)
{
    const double u = rng.uniform();
    const double gap = -std::log(1.0 - u) * meanNs;
    const auto ns = static_cast<sim::Time>(gap);
    return ns < 1 ? 1 : ns;
}

/** Geometric session length with mean @p mean, >= 1. */
std::uint64_t
sessionLength(sim::Rng &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    const double p = 1.0 / mean;
    const double u = rng.uniform();
    const double len =
        1.0 + std::floor(std::log(1.0 - u) / std::log(1.0 - p));
    if (len < 1.0)
        return 1;
    return static_cast<std::uint64_t>(len);
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

// ---------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(ArrivalConfig config, sim::Rng base)
    : config_(config), base_(base), modRng_(base.stream(0))
{
    if (config_.clients == 0)
        config_.clients = 1;
    if (config_.ratePerSec <= 0.0)
        config_.ratePerSec = 1.0;
}

double
ArrivalProcess::peakFactor() const
{
    switch (config_.kind) {
      case ArrivalKind::Poisson:
        return 1.0;
      case ArrivalKind::Bursty: {
        // Normalize so the time-averaged factor is 1: the burst state
        // runs at burstRateFactor x the calm state, weighted by the
        // stationary dwell fractions.
        const double pOn =
            static_cast<double>(config_.meanBurstNs)
            / static_cast<double>(config_.meanBurstNs
                                  + config_.meanCalmNs);
        const double fCalm =
            1.0 / ((1.0 - pOn) + pOn * config_.burstRateFactor);
        return fCalm * config_.burstRateFactor;
      }
      case ArrivalKind::Diurnal:
        return 1.0 + config_.diurnalAmplitude;
    }
    return 1.0;
}

void
ArrivalProcess::ensureModulation(sim::Time t)
{
    // Append-only extension from a dedicated stream: the segment
    // sequence is identical no matter which client generation first
    // required coverage of time t.
    const double pOn = static_cast<double>(config_.meanBurstNs)
                     / static_cast<double>(config_.meanBurstNs
                                           + config_.meanCalmNs);
    const double fCalm =
        1.0 / ((1.0 - pOn) + pOn * config_.burstRateFactor);
    const double fBurst = fCalm * config_.burstRateFactor;
    if (segments_.empty()) {
        segments_.push_back({0, fCalm});
        modStateBurst_ = false;
        modCovered_ = expGap(modRng_,
                             static_cast<double>(config_.meanCalmNs));
    }
    while (modCovered_ <= t) {
        modStateBurst_ = !modStateBurst_;
        segments_.push_back(
            {modCovered_, modStateBurst_ ? fBurst : fCalm});
        modCovered_ += expGap(
            modRng_, static_cast<double>(modStateBurst_
                                             ? config_.meanBurstNs
                                             : config_.meanCalmNs));
    }
}

double
ArrivalProcess::factorAt(sim::Time t)
{
    switch (config_.kind) {
      case ArrivalKind::Poisson:
        return 1.0;
      case ArrivalKind::Bursty: {
        ensureModulation(t);
        // Last segment with start <= t.
        auto it = std::upper_bound(
            segments_.begin(), segments_.end(), t,
            [](sim::Time v, const RateSegment &s) { return v < s.start; });
        return std::prev(it)->factor;
      }
      case ArrivalKind::Diurnal: {
        const auto period =
            static_cast<std::uint64_t>(config_.diurnalPeriodNs);
        const std::uint64_t phase = period == 0 ? 0 : t % period;
        const double half = static_cast<double>(period) / 2.0;
        const double x = static_cast<double>(phase);
        // Triangle in [0, 1]: up over the first half, down the second.
        const double tri = x < half ? x / half : 2.0 - x / half;
        return (1.0 - config_.diurnalAmplitude)
             + 2.0 * config_.diurnalAmplitude * tri;
      }
    }
    return 1.0;
}

std::vector<Arrival>
ArrivalProcess::generateClient(unsigned client, std::uint64_t count)
{
    std::vector<Arrival> out;
    out.reserve(count);
    sim::Rng rng = base_.stream(1 + client);
    const double peak = peakFactor();
    // Candidate stream at the per-client peak rate; thinning by the
    // mean-normalized factor recovers the modulated process with mean
    // rate ratePerSec / clients.
    const double peakMeanGapNs =
        1e9 / (config_.ratePerSec * peak
               / static_cast<double>(config_.clients));
    sim::Time t = 0;
    std::uint64_t sessionLeft = 0;
    while (out.size() < count) {
        t += expGap(rng, peakMeanGapNs);
        if (peak > 1.0 && rng.uniform() * peak >= factorAt(t))
            continue;
        const bool newSession = sessionLeft == 0;
        if (newSession)
            sessionLeft =
                sessionLength(rng, config_.meanSessionRequests);
        sessionLeft--;
        out.push_back({t, client, newSession});
    }
    return out;
}

std::vector<Arrival>
ArrivalProcess::mergeSchedules(std::vector<std::vector<Arrival>> perClient)
{
    std::vector<Arrival> merged;
    std::size_t total = 0;
    for (const auto &v : perClient)
        total += v.size();
    merged.reserve(total);
    for (auto &v : perClient) {
        const std::size_t mid = merged.size();
        merged.insert(merged.end(), v.begin(), v.end());
        std::inplace_merge(merged.begin(), merged.begin() + mid,
                           merged.end(),
                           [](const Arrival &a, const Arrival &b) {
                               if (a.at != b.at)
                                   return a.at < b.at;
                               return a.client < b.client;
                           });
    }
    return merged;
}

// ---------------------------------------------------------------------
// ArrivalGenTask
// ---------------------------------------------------------------------

ArrivalGenTask::ArrivalGenTask(ArrivalConfig config, sim::Rng base,
                               std::uint64_t totalRequests,
                               std::vector<Arrival> *out,
                               std::string label)
    : process_(config, base), totalRequests_(totalRequests), out_(out),
      label_(std::move(label))
{
    perClient_.resize(process_.config().clients);
}

bool
ArrivalGenTask::step(sim::Cpu &cpu)
{
    // Token virtual cost: generation is control-plane work; keeping
    // it tiny leaves the gen run's makespan far below the service
    // run's start, so the engine's final makespan is the service one.
    cpu.advance(100);
    const unsigned clients = process_.config().clients;
    if (nextClient_ < clients) {
        // Split the exact total across clients (first streams absorb
        // the remainder), so the tenant drives exactly totalRequests.
        const std::uint64_t per = totalRequests_ / clients;
        const std::uint64_t extra =
            nextClient_ < totalRequests_ % clients ? 1 : 0;
        perClient_[nextClient_] =
            process_.generateClient(nextClient_, per + extra);
        nextClient_++;
        return true;
    }
    *out_ = ArrivalProcess::mergeSchedules(std::move(perClient_));
    perClient_.clear();
    return false;
}

// ---------------------------------------------------------------------
// OpenLoopStats / OpenLoopServer
// ---------------------------------------------------------------------

OpenLoopStats
OpenLoopStats::make(sim::MetricsScope scope, sim::Time sloNs)
{
    OpenLoopStats stats;
    stats.requests = scope.counter("requests");
    stats.connections = scope.counter("connections");
    stats.sloViolations = scope.counter("slo_violations");
    stats.latency = scope.histogram("latency_ns");
    stats.queueDelay = scope.histogram("queue_delay_ns");
    stats.service = scope.histogram("service_ns");
    stats.sloNs = sloNs;
    return stats;
}

OpenLoopServer::OpenLoopServer(sys::System &system,
                               OpenLoopService &service,
                               OpenLoopQueue &queue,
                               OpenLoopStats &stats, std::string tenant,
                               std::string label)
    : system_(system), service_(service), queue_(queue), stats_(stats),
      tenant_(std::move(tenant)), label_(std::move(label))
{}

bool
OpenLoopServer::step(sim::Cpu &cpu)
{
    quantumStart(cpu, system_, service_.access());
    if (queue_.next >= queue_.schedule.size())
        return false;
    const std::uint64_t seq = queue_.next;
    const Arrival arrival = queue_.schedule[queue_.next++];
    const sim::Time arrivedAt = queue_.base + arrival.at;

    sim::SpanRecorder &rec = sim::SpanRecorder::get();
    const bool traced = rec.enabled(sim::TraceCat::Openloop);
    const std::uint32_t track = sim::spanTrackOf(cpu);
    if (traced) {
        // Claim chain: one arrow per tenant threads the FCFS claims,
        // showing in Perfetto how its requests hop across server
        // tracks. Claims are serialized by min-clock stepping, so the
        // chain (and its single id) is deterministic.
        if (queue_.flowId == 0) {
            queue_.flowId =
                rec.flowStart(sim::TraceCat::Openloop, track,
                              cpu.coreId(), cpu.now(), "claim");
        } else if (queue_.next >= queue_.schedule.size()) {
            rec.flowEnd(sim::TraceCat::Openloop, track, cpu.coreId(),
                        cpu.now(), "claim", queue_.flowId);
            queue_.flowId = 0;
        } else {
            rec.flowStep(sim::TraceCat::Openloop, track, cpu.coreId(),
                         cpu.now(), "claim", queue_.flowId);
        }
    }
    // Open loop: an idle server waits for the arrival; a busy pool
    // starts late and the difference is queueing delay.
    cpu.advanceTo(arrivedAt);
    const sim::Time startedAt = cpu.now();
    sim::SpanRecorder::CaptureMark mark;
    if (traced) {
        // Mark before the begin so the request span itself is part of
        // the exemplar capture.
        mark = rec.captureMark(track);
        char detail[96];
        std::snprintf(detail, sizeof detail,
                      "tenant=%s seq=%llu arr=%llu", tenant_.c_str(),
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(arrivedAt));
        rec.begin(sim::TraceCat::Openloop, track, cpu.coreId(),
                  cpu.now(), "request", detail);
    }
    if (arrival.newSession) {
        cpu.advance(system_.cm().tcpAccept);
        stats_.connections.add();
    }
    service_.serve(cpu, arrival);
    if (traced) {
        rec.end(sim::TraceCat::Openloop, track, cpu.coreId(), cpu.now(),
                "request");
    }
    const sim::Time doneAt = cpu.now();
    if (doneAt > queue_.lastDone)
        queue_.lastDone = doneAt;
    stats_.requests.add();
    stats_.latency.record(doneAt - arrivedAt);
    stats_.queueDelay.record(startedAt - arrivedAt);
    stats_.service.record(doneAt - startedAt);
    if (stats_.sloNs != 0 && doneAt - arrivedAt > stats_.sloNs)
        stats_.sloViolations.add();
    if (traced) {
        rec.recordRequestExemplar(tenant_, seq, arrivedAt, startedAt,
                                  doneAt, track, mark, kExemplarTopK);
    }
    system_.timelineTick(cpu);
    return queue_.next < queue_.schedule.size();
}

} // namespace dax::wl
