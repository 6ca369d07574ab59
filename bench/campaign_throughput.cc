/**
 * @file
 * Campaign throughput: batch causality inference scaling with worker
 * count (docs/EXPERIMENTS.md "Campaign throughput").
 *
 * For each benchmark workload the full campaign (enumerate -> plan ->
 * dual-execute every (source, policy) query -> aggregate) runs cold at
 * --jobs 1/2/4/8, reporting queries/sec and per-query latency
 * percentiles, then once more against a warm in-memory cache to
 * report the hit rate and the warm wall time, and finally a
 * telemetry-off vs telemetry-on pair (exporter + trace + spans all
 * enabled) at --jobs 4 to measure the observability overhead — the
 * acceptance budget is <= 5%. Emits BENCH_campaign.json for CI
 * diffing.
 */
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/exporter.h"
#include "query/campaign.h"

using namespace ldx;

namespace {

struct JobsRun
{
    int jobs = 0;
    std::size_t queries = 0;
    double seconds = 0.0;
    double queriesPerSec = 0.0;
    RunningStats latency; ///< per-query seconds (executed only)
};

JobsRun
coldCampaign(const workloads::Workload &w, int jobs)
{
    query::CampaignConfig cfg;
    cfg.sinks = w.sinks;
    cfg.jobs = jobs;
    cfg.deadlineSeconds = 60.0;

    JobsRun run;
    run.jobs = jobs;
    query::CampaignResult res;
    run.seconds = bench::timeSeconds(
        [&] {
            res = query::runCampaign(workloads::workloadModule(w, true),
                                     w.world(w.defaultScale), cfg);
        },
        1);
    run.queries = res.queries.size();
    run.queriesPerSec =
        run.seconds > 0.0 ? res.queries.size() / run.seconds : 0.0;
    for (std::size_t i = 0; i < res.queries.size(); ++i)
        if (!res.fromCache[i] &&
            res.outcomes[i].status == query::RunStatus::Done)
            run.latency.add(res.outcomes[i].seconds);
    return run;
}

/** Telemetry-overhead pair: best-of-N seconds with telemetry off/on. */
struct TelemetryPair
{
    double offSeconds = 0.0;
    double onSeconds = 0.0;
};

/**
 * Measure one workload's cold --jobs 4 campaign with telemetry off vs
 * fully on (metrics registry, exporter sampling into throwaway files,
 * span-correlated tracing into an in-memory stream). The campaigns
 * finish in ~1 ms, so the off/on runs are *interleaved* and best-of-N
 * taken on each side — back-to-back blocks would fold CPU-frequency
 * drift into the delta and swamp the effect being measured.
 */
TelemetryPair
telemetryOverhead(const workloads::Workload &w)
{
    query::CampaignConfig off_cfg;
    off_cfg.sinks = w.sinks;
    off_cfg.jobs = 4;
    off_cfg.deadlineSeconds = 60.0;

    query::CampaignConfig on_cfg = off_cfg;
    obs::Registry reg;
    std::ostringstream trace_out;
    obs::JsonlTraceSink sink(trace_out);
    on_cfg.registry = &reg;
    on_cfg.traceSink = &sink;

    obs::ExporterConfig ecfg;
    ecfg.jsonlPath = std::string("bench-telemetry-") + w.name + ".jsonl";
    ecfg.promPath = std::string("bench-telemetry-") + w.name + ".prom";
    ecfg.intervalMs = 100;
    obs::Exporter exporter(reg, ecfg);
    exporter.start();

    TelemetryPair pair;
    pair.offSeconds = pair.onSeconds = 1e30;
    const int reps = 20;
    for (int r = 0; r < reps; ++r) {
        double off = bench::timeSeconds(
            [&] {
                query::runCampaign(workloads::workloadModule(w, true),
                                   w.world(w.defaultScale), off_cfg);
            },
            1);
        double on = bench::timeSeconds(
            [&] {
                query::runCampaign(workloads::workloadModule(w, true),
                                   w.world(w.defaultScale), on_cfg);
            },
            1);
        if (off < pair.offSeconds)
            pair.offSeconds = off;
        if (on < pair.onSeconds)
            pair.onSeconds = on;
    }
    exporter.stop();
    return pair;
}

} // namespace

int
main()
{
    const char *names[] = {"gif2png", "mp3info", "prozilla", "ngircd"};
    const int jobs_axis[] = {1, 2, 4, 8};

    std::string json = "{\"bench\":\"campaign\",\"workloads\":[";
    bool first_w = true;
    for (const char *name : names) {
        const workloads::Workload *w = workloads::findWorkload(name);
        if (!w) {
            std::cerr << "[bench] unknown workload " << name << "\n";
            return 2;
        }
        if (!first_w)
            json += ',';
        first_w = false;
        json += "{\"workload\":" + obs::jsonString(w->name);
        json += ",\"runs\":[";

        std::cout << w->name << ":\n";
        for (std::size_t j = 0; j < std::size(jobs_axis); ++j) {
            JobsRun run = coldCampaign(*w, jobs_axis[j]);
            std::cout << "  jobs " << run.jobs << ": " << run.queries
                      << " queries in " << run.seconds * 1e3 << " ms ("
                      << run.queriesPerSec << " q/s, p50 "
                      << run.latency.p50() * 1e3 << " ms, p95 "
                      << run.latency.p95() * 1e3 << " ms)\n";
            if (j)
                json += ',';
            json += "{\"jobs\":" + std::to_string(run.jobs);
            json += ",\"queries\":" + std::to_string(run.queries);
            json += ",\"seconds\":" + obs::jsonNumber(run.seconds);
            json += ",\"queries_per_sec\":" +
                    obs::jsonNumber(run.queriesPerSec);
            json += ",\"latency_seconds\":" +
                    bench::statsJson(run.latency);
            json += '}';
        }
        json += ']';

        // Warm pass: run the campaign twice against a per-workload
        // disk cache in the working directory and measure the second
        // (fully cached) run.
        query::CampaignConfig warm_cfg;
        warm_cfg.sinks = w->sinks;
        warm_cfg.jobs = 4;
        warm_cfg.deadlineSeconds = 60.0;
        warm_cfg.cacheDir =
            std::string("campaign-cache-") + w->name;
        query::runCampaign(workloads::workloadModule(*w, true),
                           w->world(w->defaultScale), warm_cfg);
        query::CampaignResult warm;
        double warm_seconds = bench::timeSeconds(
            [&] {
                warm = query::runCampaign(
                    workloads::workloadModule(*w, true),
                    w->world(w->defaultScale), warm_cfg);
            },
            1);
        double hit_rate =
            warm.queries.empty()
                ? 0.0
                : static_cast<double>(warm.cacheHits) /
                      static_cast<double>(warm.queries.size());
        std::cout << "  warm: " << warm.cacheHits << "/"
                  << warm.queries.size() << " cached ("
                  << warm.dualExecutions << " executed, "
                  << warm_seconds * 1e3 << " ms)\n";
        json += ",\"warm\":{\"cache_hit_rate\":" +
                obs::jsonNumber(hit_rate);
        json += ",\"dual_executions\":" +
                std::to_string(warm.dualExecutions);
        json += ",\"seconds\":" + obs::jsonNumber(warm_seconds) + "}";

        // Telemetry overhead: cold --jobs 4 with everything off vs
        // everything on (registry + exporter + span trace).
        TelemetryPair pair = telemetryOverhead(*w);
        double overhead = pair.offSeconds > 0.0
                              ? pair.onSeconds / pair.offSeconds - 1.0
                              : 0.0;
        std::cout << "  telemetry: off " << pair.offSeconds * 1e3
                  << " ms, on " << pair.onSeconds * 1e3 << " ms ("
                  << overhead * 100.0 << "% overhead)\n";
        json += ",\"telemetry\":{\"off_seconds\":" +
                obs::jsonNumber(pair.offSeconds);
        json += ",\"on_seconds\":" + obs::jsonNumber(pair.onSeconds);
        json += ",\"overhead\":" + obs::jsonNumber(overhead) + "}";

        json += '}';
    }
    json += "]}";
    bench::writeBenchBlob("campaign", json);
    return 0;
}
