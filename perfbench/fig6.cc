/**
 * @file
 * The `fig6` workload: the paper's Fig. 6 protocol on the threaded
 * driver at fixed per-row scales (README.md "fig6").
 */
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace ldx::perfbench {

namespace {

/** One fixed Fig. 6 row: program, input scale, runs per batch. */
struct RowSpec
{
    const char *name;
    int scale;
    int batch;
};

/**
 * The 19 Fig. 6 programs. The five long rows (isLongRow) use the scale
 * at which the native run first takes at least 20 ms; the other 14
 * programs cap their input size, so they run at the largest input
 * their world builds and batch several runs into each timing.
 */
constexpr RowSpec kRows[] = {
    {"400.perlbench", 16, 2},
    {"401.bzip2", 16, 4},
    {"403.gcc", 64, 2},
    {"429.mcf", 4, 1},
    {"445.gobmk", 1, 4},
    {"456.hmmer", 2, 1},
    {"458.sjeng", 5, 1},
    {"462.libquantum", 4, 4},
    {"464.h264ref", 4, 4},
    {"471.omnetpp", 16, 1},
    {"473.astar", 1, 4},
    {"483.xalancbmk", 64, 1},
    {"nginx", 64, 1},
    {"tnftp", 512, 1},
    {"apache", 4, 4},
    {"pbzip2", 16, 4},
    {"pigz", 16, 4},
    {"axel", 384, 1},
    {"x264", 4, 4},
};

/** Wall-clock cap of the operation that fails every time. */
constexpr double kStallCapSeconds = 0.25;

/** Prepared programs of one setup. */
struct Fig6Setup
{
    std::vector<Program> programs;
    os::WorldSpec xalancbmkWorld; ///< default scale, for the stall op
};

void
setupOnce(Fig6Setup &s, Tracer *tracer)
{
    s.programs.clear();
    s.programs.reserve(std::size(kRows));
    for (const RowSpec &r : kRows) {
        s.programs.push_back(describeProgram(r.name, r.scale));
        prepareProgram(s.programs.back(), tracer, 0);
    }
    const workloads::Workload *w = workloads::findWorkload("483.xalancbmk");
    SpanScope span(tracer, "os.world");
    s.xalancbmkWorld = w->world(w->defaultScale);
}

/**
 * The threaded dual run of 483.xalancbmk with /doc.xml mutated whole
 * value off-by-one. The stall watchdog needs 141 expiries of ~5 s each
 * on this driver, so the run never finishes under the cap: it counts
 * as a failed operation every time.
 */
void
stallOp(const Fig6Setup &s, Tracer *tracer, Tally *tally, OpCount &ops)
{
    const Program &xal = *std::find_if(
        s.programs.begin(), s.programs.end(),
        [](const Program &p) { return p.name == "483.xalancbmk"; });
    core::EngineConfig cfg;
    cfg.sinks = xal.sinks;
    cfg.sources = {core::SourceSpec::file("/doc.xml").wholeValue()};
    cfg.threaded = true;
    cfg.wallClockCap = kStallCapSeconds;
    cfg.vmConfig.predecoded = xal.instrDecoded;
    ++ops.attempted;
    core::DualResult r;
    {
        SpanScope span(tracer, "ldx.dual_stall");
        core::DualEngine engine(*xal.instrumented, s.xalancbmkWorld, cfg);
        r = engine.run();
    }
    if (r.deadlocked)
        ++ops.failed;
    if (tally)
        tallyDual(*tally, r);
}

/** Table 2 ground truth: causality exactly when expectLeak is set. */
void
checkMutationCases(const Fig6Setup &s, OpCount &ops)
{
    for (const Program &p : s.programs) {
        for (const workloads::MutationCase &mc : p.workload->mutationCases) {
            core::EngineConfig cfg;
            cfg.sinks = p.sinks;
            cfg.sources = mc.sources;
            core::DualEngine engine(
                *p.instrumented, p.workload->world(p.workload->defaultScale),
                cfg);
            core::DualResult r = engine.run();
            if (r.causality() != mc.expectLeak)
                ops.errors.push_back(p.name + " case " + mc.label +
                                     ": causality " +
                                     (r.causality() ? "true" : "false") +
                                     ", expected " +
                                     (mc.expectLeak ? "true" : "false"));
        }
    }
}

double
roundOpSeconds(const std::vector<RowPlan> &rows,
               const std::vector<RowTimes> &t)
{
    double s = 0;
    for (std::size_t i = 0; i < rows.size(); ++i)
        s += (t[i].nativeMs * rows[i].batch +
              (t[i].sameMs + t[i].mutatedMs) * rows[i].dualBatch) /
             1e3;
    return s;
}

} // namespace

RunResult
runFig6(const Args &args)
{
    RunResult res;
    Tracer tracer;
    Tracer *tr = args.trace ? &tracer : nullptr;
    Fig6Setup setup;

    const int setup_reps = 15;
    double setup_s = medianSetupSeconds(
        setup_reps, [&] { setupOnce(setup, tr); });

    std::vector<RowPlan> rows;
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
        RowPlan row;
        row.program = &setup.programs[i];
        row.batch = row.dualBatch = kRows[i].batch;
        row.threaded = true;
        row.checkSame = !row.program->concurrent;
        row.longRow = isLongRow(row.program->name);
        row.masterInstructions =
            instrumentedNativeInstructions(*row.program);
        rows.push_back(row);
    }

    // Untimed warm-up: one run of every operation.
    {
        OpCount scratch;
        for (const RowPlan &row : rows) {
            RowPlan once = row;
            once.batch = once.dualBatch = 1;
            runRow(once, 0, nullptr, nullptr, scratch);
        }
        stallOp(setup, nullptr, nullptr, scratch);
    }

    Rng rng(args.seed);
    Tally tally;
    std::vector<std::vector<RowTimes>> rounds;
    std::vector<double> trace_ratio;
    int traced_rounds = 0;
    double deadline = nowSeconds() + args.seconds;
    int round = 0;
    do {
        std::vector<std::size_t> order = rng.order(rows.size());
        int rotate = static_cast<int>(rng.below(3));
        // A traced run measures each round twice, traced and
        // untraced, alternating which goes first.
        int passes = args.trace ? 2 : 1;
        double op_seconds[2] = {0, 0};
        for (int pass = 0; pass < passes; ++pass) {
            bool traced = args.trace && (pass + round) % 2 == 0;
            std::vector<RowTimes> t(rows.size());
            for (std::size_t i : order)
                t[i] = runRow(rows[i], rotate, traced ? &tracer : nullptr,
                              traced ? &tally : nullptr, res.ops);
            stallOp(setup, traced ? &tracer : nullptr,
                    traced ? &tally : nullptr, res.ops);
            op_seconds[traced ? 1 : 0] = roundOpSeconds(rows, t);
            if (traced)
                ++traced_rounds;
            else
                rounds.push_back(std::move(t));
        }
        if (args.trace)
            trace_ratio.push_back(op_seconds[1] / op_seconds[0]);
        ++round;
    } while (nowSeconds() < deadline);

    checkMutationCases(setup, res.ops);

    Fig6Summary f = summarizeRows(rows, rounds);
    auto e2e = [&](const char *name, double v, const char *unit) {
        res.endToEnd[name] = {v, unit};
    };
    e2e("setup_s", setup_s, "s");
    e2e("native_ms", f.nativeMs, "ms");
    e2e("dual_ms", f.dualMs, "ms");
    e2e("overhead_same", f.overheadSame, "ratio");
    e2e("overhead_mutated", f.overheadMutated, "ratio");
    e2e("overhead_long", f.overheadLong, "ratio");

    // The campaign metrics, read from the row operations (README.md
    // "Every metric on every workload"): per-row medians over rounds
    // first, then their geomean across the long rows, whose dual runs
    // span many of the driver's 5 ms supervisor ticks (a short row's
    // run sits on the first tick and flips to the next when the host
    // slows).
    std::vector<double> query_cells, campaign_cells, qps;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rows[i].longRow)
            continue;
        std::vector<double> s, m;
        for (const std::vector<RowTimes> &t : rounds) {
            s.push_back(t[i].sameMs);
            m.push_back(t[i].mutatedMs);
        }
        query_cells.push_back(median(s));
        query_cells.push_back(median(m));
        campaign_cells.push_back(median(s) + median(m));
    }
    for (const std::vector<RowTimes> &t : rounds) {
        double dual_s = 0;
        int dual_runs = 0;
        for (const RowTimes &r : t) {
            dual_s += r.dualSeconds;
            dual_runs += r.dualRuns;
        }
        qps.push_back(dual_runs / dual_s);
    }
    e2e("queries_per_s", median(qps), "1/s");
    e2e("query_ms_p50", geomean(query_cells), "ms");
    e2e("campaign_ms_p50", geomean(campaign_cells), "ms");

    if (args.trace) {
        layerMetrics(res, tally, tracer, traced_rounds, setup_reps);
        res.perLayer["bench.trace_overhead_pct"] = {
            (median(trace_ratio) - 1.0) * 100.0, "%"};
        std::string path = args.workDir + "/spans-fig6-seed" +
                           std::to_string(args.seed) + ".json";
        if (tracer.write(path))
            res.notes.push_back("spans " + std::to_string(tracer.size()) +
                                " written to " + path);
    }
    res.notes.push_back("rounds " + std::to_string(round) +
                        ", untimed Table 2 cases checked");
    return res;
}

} // namespace ldx::perfbench
