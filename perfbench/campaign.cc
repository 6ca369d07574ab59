/**
 * @file
 * The `campaign` workload: offline `runCampaign` over the 40 named
 * programs on the lockstep driver with a cold cache (README.md
 * "campaign").
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "query/cache.h"
#include "query/campaign.h"
#include "query/scheduler.h"

namespace ldx::perfbench {

namespace {

/** Workers of the campaigns' shared pool (clamped to the host's CPUs). */
constexpr int kJobs = 2;

/** Each timed batch of identical campaigns lasts at least this long. */
constexpr double kBatchTargetMs = 20.0;

/** Sweep offsets start at a seeded even offset below this. */
constexpr std::size_t kSweepOffsets = 8;

/** Vulnerable programs and the sink their injected exploit reaches. */
const std::pair<const char *, const char *> kInjectedSinks[] = {
    {"gif2png", "sink:ret-token"}, {"mp3info", "sink:ret-token"},
    {"prozilla", "sink:ret-token"}, {"yopsweb", "sink:ret-token"},
    {"ngircd", "sink:ret-token"},   {"gzip-alloc", "sink:alloc-size"},
};

/** One timed runCampaign call. */
struct CallTimes
{
    /// The call's place in a round: (program, 0 = whole value, 1 =
    /// the sweep's even offset, 2 = its odd offset).
    std::pair<std::size_t, int> slot;
    double ms = 0;
    std::size_t queries = 0;
    std::uint64_t executed = 0;
    double querySeconds = 0; ///< scheduler time inside executed queries
};

/** The graph node id the enumerator gives a workload's source. */
std::string
sourceNodeId(const core::SourceSpec &s)
{
    const char *klass = "env";
    switch (s.kind) {
    case core::SourceSpec::Kind::File:
        klass = "file";
        break;
    case core::SourceSpec::Kind::PeerResponses:
        klass = "peer";
        break;
    case core::SourceSpec::Kind::Incoming:
        klass = "incoming";
        break;
    default:
        break;
    }
    return std::string("src:") + klass + ":" + s.resourceKey();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return in ? os.str() : std::string();
}

void
setupOnce(std::vector<Program> &programs, Tracer *tracer)
{
    programs.clear();
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::allWorkloads())
        names.push_back(w.name);
    for (const std::string &c : corpusNames())
        names.push_back(c);
    programs.reserve(names.size());
    for (const std::string &n : names) {
        const workloads::Workload *w = workloads::findWorkload(n);
        programs.push_back(describeProgram(n, w ? w->defaultScale : 1));
        prepareProgram(programs.back(), tracer, 0);
    }
}

} // namespace

RunResult
runCampaignWorkload(const Args &args)
{
    RunResult res;
    Tracer tracer;
    Tracer *tr = args.trace ? &tracer : nullptr;
    std::vector<Program> programs;
    const int setup_reps = 15;
    double setup_s = medianSetupSeconds(
        setup_reps, [&] { setupOnce(programs, tr); });
    const int jobs = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, kJobs);

    std::vector<RowPlan> rows = referenceRows(programs);

    std::map<std::string, std::string> graphs; ///< (program, offset) -> json
    /// Campaigns per timed batch, by (program, offset).
    std::map<std::pair<std::size_t, std::size_t>, int> batch;

    // Every campaign runs as a tenant of one process-wide pool, as
    // under `ldx serve`, so no timing includes starting its workers.
    query::SharedPool::Config pool_cfg;
    pool_cfg.jobs = jobs;
    query::SharedPool pool(pool_cfg);

    // One timed operation: `batch` back-to-back campaigns of one
    // (program, offset), each with a fresh (cold) sharded cache, so
    // that no timing covers less than kBatchTargetMs of work; times
    // are reported per campaign.
    auto campaignCall = [&](std::size_t pi, std::size_t offset,
                            Tracer *t, Tally *tally) {
        const Program &p = programs[pi];
        query::CampaignConfig cc;
        cc.sinks = p.sinks;
        cc.offset = offset;
        cc.sharedPool = &pool;
        cc.vmConfig.predecoded = p.instrDecoded;
        ++res.ops.attempted;
        CallTimes c;
        c.slot = {pi, offset == core::SourceSpec::kWholeValue
                          ? 0
                          : 1 + static_cast<int>(offset % 2)};
        auto bi = batch.find({pi, offset});
        const int runs = bi == batch.end() ? 1 : bi->second;
        const std::uint64_t request = t ? t->nextId() : 0;
        std::int64_t b0 = nowMicros();
        query::CampaignResult r;
        for (int i = 0; i < runs; ++i) {
            query::ShardedResultCache cache(cc.cacheCapacity, 8, "", nullptr);
            cc.sharedCache = &cache;
            {
                SpanScope span(t, "query.runCampaign", 0, request);
                r = query::runCampaign(*p.instrumented, p.world, cc);
            }
            c.executed += r.dualExecutions;
            for (const query::RunOutcome &o : r.outcomes)
                if (o.status == query::RunStatus::Done && o.worker >= 0)
                    c.querySeconds += o.seconds;
        }
        c.ms = static_cast<double>(nowMicros() - b0) / 1e3 / runs;
        c.queries = r.queries.size();

        // Checks: every query answered, graphs stable across rounds,
        // the whole-value graphs against independent ground truth.
        if (r.failedQueries || r.cancelledQueries || r.timedOutQueries) {
            ++res.ops.failed;
            res.ops.errors.push_back(p.name + ": campaign had failed, "
                                              "cancelled or timed-out "
                                              "queries");
        }
        std::string json = r.graph.toJson();
        std::string key = p.name + "@" + std::to_string(offset);
        auto [it, fresh] = graphs.emplace(key, json);
        if (!fresh && it->second != json)
            res.ops.errors.push_back(key + ": graph changed between rounds");
        if (fresh && offset == core::SourceSpec::kWholeValue) {
            if (!p.workload) {
                std::string golden = readFile(args.goldenDir + "/" + p.name +
                                              ".golden.json");
                if (golden.empty() || golden != json)
                    res.ops.errors.push_back(
                        p.name + ": graph differs from its golden file");
            }
            for (const auto &[name, sink] : kInjectedSinks) {
                if (p.name != name)
                    continue;
                std::string from = sourceNodeId(p.workload->sources.front());
                bool found = false;
                for (const query::GraphEdge &e : r.graph.edges)
                    found |= e.from == from && e.to == sink;
                if (!found)
                    res.ops.errors.push_back(p.name + ": no edge " + from +
                                             " -> " + sink);
            }
        }

        if (tally) {
            for (const obs::PhaseSample &ph : r.phases) {
                static const std::pair<const char *, const char *> kPh[] = {
                    {"campaign.enumerate", "query.enumerate_ms"},
                    {"campaign.plan", "query.plan_ms"},
                    {"campaign.probe-cache", "query.probe_ms"},
                    {"campaign.execute", "query.exec_ms"},
                    {"campaign.aggregate", "query.aggregate_ms"},
                };
                for (const auto &[phase, metric] : kPh)
                    if (ph.name == phase)
                        tally->add(metric, ph.seconds * 1e3);
            }
            for (const query::RunOutcome &o : r.outcomes)
                if (o.worker >= 0)
                    tally->sample("query.queue_wait_ms",
                                  o.queueWaitSeconds * 1e3);
            // Per-layer figures are per campaign: the last of the
            // batch's identical campaigns stands for the batch.
            tally->add("query.busy_s", c.querySeconds / runs);
            tally->add("query.dual_executions",
                       static_cast<double>(r.dualExecutions));
            // Replay each source's whole-value off-by-one query
            // through the engine: runCampaign keeps per-query engine
            // counters private, and the watchdog cost shows here.
            if (offset == core::SourceSpec::kWholeValue) {
                for (const query::CampaignQuery &q : r.queries) {
                    if (q.strategy != core::MutationStrategy::OffByOne)
                        continue;
                    core::EngineConfig ecfg;
                    ecfg.sinks = p.sinks;
                    ecfg.sources = {q.spec};
                    ecfg.flightRecorder = false;
                    ecfg.vmConfig.predecoded = p.instrDecoded;
                    SpanScope span(t, "ldx.dual_replay", 0, request);
                    core::DualEngine engine(*p.instrumented, p.world, ecfg);
                    tallyDual(*tally, engine.run());
                }
            }
        }
        return c;
    };

    // Untimed warm-up: every (program, offset) a round can ask for,
    // once, which also sizes its batch.
    {
        OpCount kept = res.ops;
        for (std::size_t pi = 0; pi < programs.size(); ++pi) {
            std::vector<std::size_t> offsets = {core::SourceSpec::kWholeValue};
            for (std::size_t o = 0; o < kSweepOffsets; ++o)
                offsets.push_back(o);
            for (std::size_t o : offsets) {
                double ms = campaignCall(pi, o, nullptr, nullptr).ms;
                batch[{pi, o}] = std::clamp(
                    static_cast<int>(
                        std::ceil(kBatchTargetMs / std::max(ms, 1e-3))),
                    1, 200);
            }
        }
        kept.errors = res.ops.errors;
        res.ops = kept;
    }

    Rng rng(args.seed);
    Tally tally;
    std::vector<std::vector<CallTimes>> rounds;
    std::vector<std::vector<RowTimes>> row_rounds;
    std::vector<double> trace_ratio;
    int traced_rounds = 0;
    double deadline = nowSeconds() + args.seconds;
    int round = 0;
    do {
        // The round's plan: programs in seeded order, each with its
        // whole-value campaign and a sweep of two adjacent offsets
        // starting at a seeded even offset below kSweepOffsets.
        std::vector<std::pair<std::size_t, std::size_t>> plan;
        for (std::size_t pi : rng.order(programs.size())) {
            std::size_t base = 2 * rng.below(kSweepOffsets / 2);
            plan.push_back({pi, core::SourceSpec::kWholeValue});
            plan.push_back({pi, base});
            plan.push_back({pi, base + 1});
        }
        std::vector<std::size_t> row_order = rng.order(rows.size());
        int rotate = static_cast<int>(rng.below(3));

        int passes = args.trace ? 2 : 1;
        double call_seconds[2] = {0, 0};
        for (int pass = 0; pass < passes; ++pass) {
            bool traced = args.trace && (pass + round) % 2 == 0;
            Tracer *t = traced ? &tracer : nullptr;
            Tally *ty = traced ? &tally : nullptr;
            std::vector<CallTimes> calls;
            for (const auto &[pi, offset] : plan) {
                calls.push_back(campaignCall(pi, offset, t, ty));
                call_seconds[traced ? 1 : 0] += calls.back().ms / 1e3;
            }
            std::vector<RowTimes> rt(rows.size());
            for (std::size_t i : row_order)
                rt[i] = runRow(rows[i], rotate, t, ty, res.ops);
            if (traced) {
                ++traced_rounds;
            } else {
                rounds.push_back(std::move(calls));
                row_rounds.push_back(std::move(rt));
            }
        }
        if (args.trace)
            trace_ratio.push_back(call_seconds[1] / call_seconds[0]);
        ++round;
    } while (nowSeconds() < deadline);

    auto e2e = [&](const char *name, double v, const char *unit) {
        res.endToEnd[name] = {v, unit};
    };
    e2e("setup_s", setup_s, "s");
    // Rates per round; times per slot (a program's whole-value,
    // even-offset or odd-offset campaign) as the median over rounds,
    // then the geomean over the 120 slots, which moves smoothly where
    // a median across programs would jump between them.
    std::vector<double> qps;
    std::map<std::pair<std::size_t, int>, std::vector<double>> slot_ms,
        slot_query_ms;
    for (const std::vector<CallTimes> &calls : rounds) {
        double seconds = 0;
        std::size_t queries = 0;
        for (const CallTimes &c : calls) {
            seconds += c.ms / 1e3;
            queries += c.queries;
            slot_ms[c.slot].push_back(c.ms);
            if (c.executed)
                slot_query_ms[c.slot].push_back(c.querySeconds * 1e3 /
                                                c.executed);
        }
        qps.push_back(queries / seconds);
    }
    auto slotGeomean = [](const auto &slots) {
        std::vector<double> medians;
        for (const auto &[slot, v] : slots)
            medians.push_back(median(v));
        return geomean(medians);
    };
    e2e("queries_per_s", median(qps), "1/s");
    e2e("campaign_ms_p50", slotGeomean(slot_ms), "ms");
    e2e("query_ms_p50", slotGeomean(slot_query_ms), "ms");

    // The Fig. 6 metrics, from the reference rows (lockstep driver).
    Fig6Summary f = summarizeRows(rows, row_rounds);
    e2e("native_ms", f.nativeMs, "ms");
    e2e("dual_ms", f.dualMs, "ms");
    e2e("overhead_same", f.overheadSame, "ratio");
    e2e("overhead_mutated", f.overheadMutated, "ratio");
    e2e("overhead_long", f.overheadLong, "ratio");

    if (args.trace) {
        layerMetrics(res, tally, tracer, traced_rounds, setup_reps);
        double rounds_d = std::max(1, traced_rounds);
        for (const char *m : {"query.enumerate_ms", "query.plan_ms",
                              "query.probe_ms", "query.exec_ms",
                              "query.aggregate_ms"})
            res.perLayer[m] = {tally.get(m) / rounds_d, "ms"};
        res.perLayer["query.queue_wait_ms_p50"] = {
            median(tally.samples("query.queue_wait_ms")), "ms"};
        double exec_ms = tally.get("query.exec_ms");
        res.perLayer["query.utilization"] = {
            exec_ms > 0 ? tally.get("query.busy_s") * 1e3 / (exec_ms * jobs)
                        : 0.0,
            "ratio"};
        res.perLayer["query.dual_executions"] = {
            tally.get("query.dual_executions") / rounds_d, "count"};
        res.perLayer["bench.trace_overhead_pct"] = {
            (median(trace_ratio) - 1.0) * 100.0, "%"};
        std::string path = args.workDir + "/spans-campaign-seed" +
                           std::to_string(args.seed) + ".json";
        if (tracer.write(path))
            res.notes.push_back("spans " + std::to_string(tracer.size()) +
                                " written to " + path);
    }
    res.notes.push_back("rounds " + std::to_string(round) + ", jobs " +
                        std::to_string(jobs) + ", distinct graphs " +
                        std::to_string(graphs.size()));
    return res;
}

} // namespace ldx::perfbench
