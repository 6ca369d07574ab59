/**
 * @file
 * Entry point of the ldx benchmark harness:
 *
 *   ldx_perfbench --workload fig6|campaign|serve --seed N --seconds S
 *                 --trace 0|1 --ldx PATH --golden-dir DIR --work-dir DIR
 *
 * Prints `# ` lines with the host facts that confound timings, then,
 * as the last line, one JSON object with the keys correct, attempted,
 * failed and metrics (every end-to-end metric untraced, every
 * per-layer metric traced). perfbench/run.py builds and calls it.
 */
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "vm/machine.h"

using namespace ldx::perfbench;

namespace {

/** Every end-to-end metric, with its unit (BENCHMARK.json order). */
const std::pair<const char *, const char *> kEndToEnd[] = {
    {"setup_s", "s"},           {"native_ms", "ms"},
    {"dual_ms", "ms"},          {"overhead_same", "ratio"},
    {"overhead_mutated", "ratio"}, {"overhead_long", "ratio"},
    {"queries_per_s", "1/s"},   {"campaign_ms_p50", "ms"},
    {"query_ms_p50", "ms"},
};

/**
 * The serve workload's own end-to-end metrics, printed after the
 * others on serve runs only: serve is not in BENCHMARK.json (its
 * timings do not repeat within the bounds, see README.md).
 */
const std::pair<const char *, const char *> kServeEndToEnd[] = {
    {"jobs_per_s", "1/s"},
    {"job_ms_p50", "ms"},
    {"job_ms_p95", "ms"},
    {"first_verdict_ms_p50", "ms"},
};

/** Every per-layer metric, with its unit. Idle layers report 0. */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"lang.compile_ms", "ms"},
    {"instrument.ms", "ms"},
    {"vm.predecode_ms", "ms"},
    {"vm.native_minstr_per_s", "Minstr/s"},
    {"vm.dual_instructions", "count"},
    {"os.kernel_build_us", "us"},
    {"os.syscalls", "count"},
    {"ldx.setup_ms", "ms"},
    {"ldx.run_ms", "ms"},
    {"ldx.verdict_ms", "ms"},
    {"ldx.driver_yields", "count"},
    {"ldx.backoff_ms", "ms"},
    {"ldx.chan_mutex_acquisitions", "count"},
    {"ldx.watchdog_polls", "count"},
    {"ldx.watchdog_expired", "count"},
    {"ldx.syscall_diffs", "count"},
    {"ldx.findings", "count"},
    {"obs.recorder_ms", "ms"},
    {"obs.recorder_events", "count"},
    {"query.enumerate_ms", "ms"},
    {"query.plan_ms", "ms"},
    {"query.probe_ms", "ms"},
    {"query.exec_ms", "ms"},
    {"query.aggregate_ms", "ms"},
    {"query.queue_wait_ms_p50", "ms"},
    {"query.utilization", "ratio"},
    {"query.dual_executions", "count"},
    {"bench.trace_overhead_pct", "%"},
};

/** The serve workload's own per-layer metrics (serve runs only). */
const std::pair<const char *, const char *> kServeLayer[] = {
    {"serve.accept_ms_p50", "ms"},
    {"serve.stream_ms_p50", "ms"},
    {"serve.client_wait_ms_p95", "ms"},
    {"serve.generator_lag_ms_max", "ms"},
    {"serve.exec_per_key", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ldx_perfbench: " << why
              << "\nusage: ldx_perfbench --workload fig6|campaign|serve "
                 "--seed N --seconds S --trace 0|1 --ldx PATH "
                 "--golden-dir DIR --work-dir DIR\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string v = argv[++i];
        try {
            if (arg == "--workload")
                a.workload = v;
            else if (arg == "--seed")
                a.seed = std::stoull(v);
            else if (arg == "--seconds")
                a.seconds = std::stod(v);
            else if (arg == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (arg == "--ldx")
                a.ldxPath = v;
            else if (arg == "--golden-dir")
                a.goldenDir = v;
            else if (arg == "--work-dir")
                a.workDir = v;
            else
                usage("unknown flag " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + v);
        }
    }
    if (a.workload.empty() || a.workDir.empty())
        usage("--workload and --work-dir are required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::string
hostFacts()
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1;
    std::ostringstream os;
    os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"build_type\":\"" << LDX_BUILD_TYPE << "\""
       << ",\"dispatch\":\""
       << ldx::vm::dispatchModeName(ldx::vm::MachineConfig{}.dispatch)
       << "\",\"computed_goto\":"
       << (ldx::vm::hasThreadedDispatch() ? "true" : "false")
       << ",\"loadavg\":[" << load[0] << "," << load[1] << "," << load[2]
       << "]}";
    return os.str();
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::cout << "# host " << hostFacts() << std::endl;

    RunResult res;
    try {
        if (args.workload == "fig6")
            res = runFig6(args);
        else if (args.workload == "campaign")
            res = runCampaignWorkload(args);
        else if (args.workload == "serve")
            res = runServe(args);
        else
            usage("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        std::cerr << "ldx_perfbench: " << args.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    for (const std::string &n : res.notes)
        std::cout << "# " << n << "\n";
    for (const std::string &e : res.ops.errors)
        std::cout << "# CHECK FAILED: " << e << "\n";
    std::cout << "# host-after " << hostFacts() << "\n";

    bool correct = res.ops.errors.empty();
    std::string metrics;
    auto emit = [&](const char *name, const char *unit,
                    const std::map<std::string, Metric> &from,
                    bool required) {
        auto it = from.find(name);
        double v = it == from.end() ? 0.0 : it->second.value;
        if (required && (it == from.end() || !std::isfinite(v) || v <= 0)) {
            std::cout << "# CHECK FAILED: metric " << name
                      << " missing or not positive\n";
            correct = false;
        }
        if (!std::isfinite(v))
            v = 0.0;
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + std::string(name) + "\": {\"value\": " +
                   number(v) + ", \"unit\": \"" + unit + "\"}";
    };
    const bool serve = args.workload == "serve";
    if (args.trace) {
        for (const auto &[name, unit] : kPerLayer)
            emit(name, unit, res.perLayer, false);
        if (serve)
            for (const auto &[name, unit] : kServeLayer)
                emit(name, unit, res.perLayer, false);
    } else {
        for (const auto &[name, unit] : kEndToEnd)
            emit(name, unit, res.endToEnd, true);
        if (serve)
            for (const auto &[name, unit] : kServeEndToEnd)
                emit(name, unit, res.endToEnd, true);
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << res.ops.attempted
              << ", \"failed\": " << res.ops.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return 0;
}
