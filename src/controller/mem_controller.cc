/**
 * @file
 * MemController shared metric registration.
 *
 * The common request accounting registers under "controller.*"; each
 * scheme adds its own metrics (and the legacy StatSet aliases that
 * keep the historical flat names stable) in registerSchemeMetrics().
 */

#include "controller/mem_controller.hh"

namespace dewrite {

void
MemController::writeBatch(const CtrlWriteRequest *requests,
                          CtrlWriteResult *results, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        results[i] =
            write(requests[i].addr, *requests[i].data, requests[i].now);
    }
}

void
MemController::registerMetrics(obs::MetricRegistry &registry) const
{
    obs::MetricRegistry::Scope c = registry.scope("controller");
    c.counter("write_requests", writeRequests_, "write-backs received",
              "writes");
    c.counter("read_requests", readRequests_, "fetches received",
              "reads");
    c.counter("writes_eliminated", writesEliminated_,
              "duplicate writes never programmed");
    c.counter("data_bits_programmed", dataBitsProgrammed_,
              "cells programmed by data writes");
    c.gauge("write_latency_ps", [this] { return avgWriteLatency(); },
            "write-back latency (mean)");
    c.gauge("read_latency_ps", [this] { return avgReadLatency(); },
            "fetch latency (mean)");

    // Quantile views over the base-class histograms. Registered here
    // so every scheme exposes identical paths (scheme-comparable);
    // deliberately no legacy StatSet names — host-side observability
    // must stay out of the golden result fingerprints.
    const auto quantiles = [](obs::MetricRegistry::Scope scope,
                              const obs::LatencyHistogram &hist) {
        const obs::LatencyHistogram *h = &hist;
        scope.gauge("p50_ps",
                    [h] { return static_cast<double>(h->p50()); },
                    "median request latency (ps)");
        scope.gauge("p99_ps",
                    [h] { return static_cast<double>(h->p99()); },
                    "p99 request latency (ps)");
        scope.gauge("p999_ps",
                    [h] { return static_cast<double>(h->p999()); },
                    "p99.9 request latency (ps)");
        scope.gauge("max_ps",
                    [h] { return static_cast<double>(h->max()); },
                    "maximum request latency (ps)");
    };
    quantiles(c.scope("write_latency"), writeLatency_);
    quantiles(c.scope("read_latency"), readLatency_);
    c.gauge("energy_pj",
            [this] { return static_cast<double>(controllerEnergy()); },
            "controller-side energy");
    registerSchemeMetrics(registry);
}

void
MemController::registerSchemeMetrics(obs::MetricRegistry &) const
{
}

void
MemController::fillStats(StatSet &stats) const
{
    obs::MetricRegistry registry;
    registerMetrics(registry);
    registry.fillStatSet(stats);
}

} // namespace dewrite
