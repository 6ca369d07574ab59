/**
 * @file
 * Shared harness pieces: spans, statistics, program preparation and
 * the Fig. 6 row protocol (see bench.h).
 */
#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>

#include "fuzz/generator.h"
#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "os/kernel.h"
#include "query/enumerate.h"
#include "vm/machine.h"
#include "workloads/corpus/corpus.h"

namespace ldx::perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::size_t>
Rng::order(std::size_t n)
{
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[below(i)]);
    return v;
}

// ---------------------------------------------------------------- spans

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_++;
}

void
Tracer::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

double
Tracer::totalMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double us = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            us += static_cast<double>(s.endUs - s.startUs);
    return us / 1e3;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"start_us\":" << s.startUs
            << ",\"end_us\":" << s.endUs << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
}

SpanScope::SpanScope(Tracer *tracer, const char *name,
                     std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    span_.name = name;
    span_.id = tracer_->nextId();
    span_.parent = parent;
    span_.request = request;
    span_.startUs = nowMicros();
}

SpanScope::~SpanScope()
{
    if (!tracer_)
        return;
    span_.endUs = nowMicros();
    tracer_->add(std::move(span_));
}

// ----------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(std::max(x, 1e-12));
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
tailPercentile(std::vector<double> v, double pct)
{
    if (v.size() < 20)
        return median(std::move(v));
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    // Nearest-rank index of the percentile, capped so that at least
    // ten samples lie strictly beyond it.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n - 10);
    return v[rank - 1];
}

double
medianSetupSeconds(int reps, const std::function<void()> &fn)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        double t0 = nowSeconds();
        fn();
        s.push_back(nowSeconds() - t0);
    }
    return median(s);
}

// ---------------------------------------------------------- preparation

std::vector<std::string>
corpusNames()
{
    std::vector<std::string> names;
    for (const workloads::CorpusEntry &e : workloads::corpusEntries())
        names.push_back(e.name);
    return names;
}

Program
describeProgram(const std::string &name, int scale)
{
    Program p;
    p.name = name;
    p.scale = scale;
    if (const workloads::Workload *w = workloads::findWorkload(name)) {
        p.workload = w;
        p.source = w->source;
        p.sinks = w->sinks;
        p.mutated = w->sources;
        p.concurrent = w->category == workloads::Category::Concurrent;
        return p;
    }
    for (const workloads::CorpusEntry &e : workloads::corpusEntries()) {
        if (e.name != name)
            continue;
        p.corpusSeed = e.seed;
        p.source = e.source;
        p.concurrent = e.source.find("spawn(") != std::string::npos;
        return p;
    }
    throw std::runtime_error("unknown program " + name);
}

void
prepareProgram(Program &p, Tracer *tracer, std::uint64_t parent)
{
    {
        SpanScope s(tracer, "lang.compile", parent);
        p.plain = lang::compileSource(p.source);
    }
    {
        SpanScope s(tracer, "lang.compile", parent);
        p.instrumented = lang::compileSource(p.source);
    }
    {
        SpanScope s(tracer, "instrument", parent);
        instrument::CounterInstrumenter pass(*p.instrumented);
        pass.run();
    }
    {
        SpanScope s(tracer, "os.world", parent);
        p.world = p.workload ? p.workload->world(p.scale)
                             : fuzz::ProgramGenerator::worldFor(
                                   p.corpusSeed);
    }
    {
        SpanScope s(tracer, "vm.predecode", parent);
        p.plainDecoded = std::make_shared<vm::PredecodedModule>(*p.plain);
        p.plainDecoded->decodeAll();
        p.instrDecoded =
            std::make_shared<vm::PredecodedModule>(*p.instrumented);
        p.instrDecoded->decodeAll();
    }
}

// ----------------------------------------------------- per-layer tallies

void
Tally::add(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sums_[name] += v;
}

double
Tally::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
}

void
Tally::sample(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[name].push_back(v);
}

std::vector<double>
Tally::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

void
tallyDual(Tally &t, const core::DualResult &r)
{
    t.add("dual.runs", 1);
    for (const obs::PhaseSample &ph : r.phases) {
        if (ph.depth != 0)
            continue;
        if (ph.name == "mutate" || ph.name == "setup")
            t.add("ldx.setup_ms", ph.seconds * 1e3);
        else if (ph.name == "dual-run")
            t.add("ldx.run_ms", ph.seconds * 1e3);
        else if (ph.name == "verdict")
            t.add("ldx.verdict_ms", ph.seconds * 1e3);
    }
    const obs::MetricsSnapshot &m = r.metrics;
    t.add("ldx.driver_yields",
          static_cast<double>(m.counterOr("driver.yields")));
    t.add("ldx.backoff_ms",
          static_cast<double>(m.counterOr("driver.backoff_ns")) / 1e6);
    t.add("ldx.chan_mutex_acquisitions",
          static_cast<double>(m.counterOr("chan.mutex_acquisitions")));
    t.add("ldx.watchdog_polls",
          static_cast<double>(m.counterOr("watchdog.polls")));
    t.add("ldx.watchdog_expired",
          static_cast<double>(m.counterOr("watchdog.expired")));
    t.add("ldx.syscall_diffs", static_cast<double>(r.syscallDiffs));
    t.add("ldx.findings", static_cast<double>(r.findings.size()));
    t.add("vm.dual_instructions",
          static_cast<double>(r.masterStats.instructions +
                              r.slaveStats.instructions));
    t.add("os.syscalls", static_cast<double>(r.masterStats.syscalls +
                                             r.slaveStats.syscalls));
    t.add("obs.recorder_events",
          static_cast<double>(m.counterOr("recorder.events.master") +
                              m.counterOr("recorder.events.slave")));
}

// ------------------------------------------------------ Fig. 6 protocol

namespace {

/** Outcome of one timed batch. */
struct BatchOutcome
{
    double perRunMs = 0;
    double seconds = 0;
};

bool
terminated(vm::StepStatus st)
{
    return st == vm::StepStatus::Finished ||
           st == vm::StepStatus::Trapped;
}

BatchOutcome
nativeBatch(const RowPlan &row, int runs, Tracer *tracer, Tally *tally,
            OpCount &ops)
{
    const Program &p = *row.program;
    ++ops.attempted;
    bool ok = true;
    std::uint64_t request = tracer ? tracer->nextId() : 0;
    double t0 = nowSeconds();
    for (int i = 0; i < runs; ++i) {
        SpanScope run_span(tracer, "vm.native_run", 0, request);
        std::int64_t k0 = tracer ? nowMicros() : 0;
        std::optional<os::Kernel> kernel;
        {
            SpanScope s(tracer, "os.kernel_build", run_span.id(), request);
            kernel.emplace(p.world);
        }
        if (tally)
            tally->sample("os.kernel_build_us",
                          static_cast<double>(nowMicros() - k0));
        vm::MachineConfig mc;
        mc.predecoded = p.plainDecoded;
        vm::Machine machine(*p.plain, *kernel, mc);
        std::int64_t r0 = tracer ? nowMicros() : 0;
        vm::StepStatus st;
        {
            SpanScope s(tracer, "vm.run", run_span.id(), request);
            st = machine.run();
        }
        if (tally) {
            tally->add("vm.native_instructions",
                       static_cast<double>(machine.stats().instructions));
            tally->add("vm.native_run_us",
                       static_cast<double>(nowMicros() - r0));
        }
        ok &= terminated(st);
    }
    BatchOutcome out;
    out.seconds = nowSeconds() - t0;
    out.perRunMs = out.seconds * 1e3 / runs;
    if (!ok) {
        ++ops.failed;
        ops.errors.push_back(p.name + ": native run did not terminate");
    }
    return out;
}

BatchOutcome
dualBatch(const RowPlan &row, int runs, bool mutated, bool recorder,
          Tracer *tracer, Tally *tally, OpCount &ops)
{
    const Program &p = *row.program;
    core::EngineConfig cfg;
    cfg.sinks = p.sinks;
    if (mutated)
        cfg.sources = p.mutated;
    cfg.threaded = row.threaded;
    cfg.wallClockCap = 20.0;
    cfg.flightRecorder = recorder;
    cfg.vmConfig.predecoded = p.instrDecoded;
    ++ops.attempted;
    bool deadlocked = false;
    std::uint64_t request = tracer ? tracer->nextId() : 0;
    double t0 = nowSeconds();
    for (int i = 0; i < runs; ++i) {
        core::DualResult r;
        {
            SpanScope s(tracer,
                        mutated ? "ldx.dual_mutated" : "ldx.dual_same", 0,
                        request);
            core::DualEngine engine(*p.instrumented, p.world, cfg);
            r = engine.run();
        }
        deadlocked |= r.deadlocked;
        if (mutated && row.masterInstructions &&
            r.masterStats.instructions != row.masterInstructions)
            ops.errors.push_back(
                p.name + ": mutated master retired " +
                std::to_string(r.masterStats.instructions) +
                " instructions, native instrumented run " +
                std::to_string(row.masterInstructions));
        if (!mutated && row.checkSame &&
            (!r.findings.empty() || r.syscallDiffs))
            ops.errors.push_back(p.name +
                                 ": same-input run reported " +
                                 std::to_string(r.findings.size()) +
                                 " findings, " +
                                 std::to_string(r.syscallDiffs) +
                                 " syscall diffs");
        if (tally && recorder)
            tallyDual(*tally, r);
    }
    BatchOutcome out;
    out.seconds = nowSeconds() - t0;
    out.perRunMs = out.seconds * 1e3 / runs;
    if (deadlocked) {
        ++ops.failed;
        ops.errors.push_back(p.name + ": dual run hit its wall-clock cap");
    }
    return out;
}

} // namespace

std::uint64_t
instrumentedNativeInstructions(const Program &p)
{
    os::Kernel kernel(p.world);
    vm::MachineConfig mc;
    mc.predecoded = p.instrDecoded;
    vm::Machine machine(*p.instrumented, kernel, mc);
    machine.run();
    return machine.stats().instructions;
}

void
calibrateBatches(RowPlan &row, double targetMs)
{
    OpCount scratch;
    auto runs = [&](double per_run_ms) {
        return std::clamp(static_cast<int>(std::ceil(
                              targetMs / std::max(1e-3, per_run_ms))),
                          1, 64);
    };
    row.batch =
        runs(nativeBatch(row, 1, nullptr, nullptr, scratch).perRunMs);
    row.dualBatch = runs(
        dualBatch(row, 1, false, true, nullptr, nullptr, scratch).perRunMs);
}

RowTimes
runRow(const RowPlan &row, int rotate, Tracer *tracer, Tally *tally,
       OpCount &ops)
{
    RowTimes t;
    for (int k = 0; k < 3; ++k) {
        switch ((k + rotate) % 3) {
        case 0:
            t.nativeMs =
                nativeBatch(row, row.batch, tracer, tally, ops).perRunMs;
            break;
        case 1: {
            BatchOutcome b = dualBatch(row, row.dualBatch, false, true,
                                       tracer, tally, ops);
            t.sameMs = b.perRunMs;
            t.dualSeconds += b.seconds;
            t.dualRuns += row.dualBatch;
            break;
        }
        default: {
            BatchOutcome b = dualBatch(row, row.dualBatch, true, true,
                                       tracer, tally, ops);
            t.mutatedMs = b.perRunMs;
            t.dualSeconds += b.seconds;
            t.dualRuns += row.dualBatch;
            break;
        }
        }
    }
    if (tally) {
        // Recorder cost: the same mutated batch with the flight
        // recorder off (traced rounds only; not a timed operation).
        OpCount scratch;
        double off = dualBatch(row, row.dualBatch, true, false, nullptr,
                               nullptr, scratch)
                         .perRunMs;
        tally->add("obs.recorder_ms", t.mutatedMs - off);
    }
    return t;
}

bool
isLongRow(const std::string &name)
{
    for (const char *l : {"456.hmmer", "458.sjeng", "nginx", "tnftp", "axel"})
        if (name == l)
            return true;
    return false;
}

std::vector<RowPlan>
referenceRows(std::vector<Program> &programs)
{
    std::vector<RowPlan> rows;
    for (Program &p : programs) {
        if (p.mutated.empty()) {
            query::EnumerateOptions eo;
            eo.sinks = p.sinks;
            query::BaselineEnumeration b =
                query::enumerateBaseline(*p.instrumented, p.world, eo);
            p.mutated = {b.queryableSources().front()->spec};
            p.mutated.front().offset = 0;
        }
        RowPlan row;
        row.program = &p;
        row.threaded = false;
        row.checkSame = !p.concurrent;
        row.masterInstructions = instrumentedNativeInstructions(p);
        row.longRow = isLongRow(p.name);
        calibrateBatches(row, 5.0);
        rows.push_back(row);
    }
    return rows;
}

Fig6Summary
summarizeRows(const std::vector<RowPlan> &rows,
              const std::vector<std::vector<RowTimes>> &rounds)
{
    std::vector<double> native, mutated, same_ratio, mut_ratio, long_ratio;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<double> n, s, m;
        for (const std::vector<RowTimes> &round : rounds) {
            n.push_back(round[i].nativeMs);
            s.push_back(round[i].sameMs);
            m.push_back(round[i].mutatedMs);
        }
        double mn = median(n), ms = median(s), mm = median(m);
        native.push_back(mn);
        mutated.push_back(mm);
        same_ratio.push_back(ms / mn);
        mut_ratio.push_back(mm / mn);
        if (rows[i].longRow)
            long_ratio.push_back(mm / mn);
    }
    Fig6Summary out;
    out.nativeMs = geomean(native);
    out.dualMs = geomean(mutated);
    out.overheadSame = geomean(same_ratio);
    out.overheadMutated = geomean(mut_ratio);
    out.overheadLong = geomean(long_ratio);
    return out;
}

void
layerMetrics(RunResult &res, const Tally &tally, const Tracer &tracer,
             int tracedRounds, int setupReps)
{
    auto put = [&](const char *name, double v, const char *unit) {
        res.perLayer[name] = {v, unit};
    };
    double reps = std::max(1, setupReps);
    double rounds = std::max(1, tracedRounds);
    double duals = std::max(1.0, tally.get("dual.runs"));
    put("lang.compile_ms", tracer.totalMs("lang.compile") / reps, "ms");
    put("instrument.ms", tracer.totalMs("instrument") / reps, "ms");
    put("vm.predecode_ms", tracer.totalMs("vm.predecode") / reps, "ms");
    double native_us = tally.get("vm.native_run_us");
    put("vm.native_minstr_per_s",
        native_us > 0 ? tally.get("vm.native_instructions") / native_us
                      : 0.0,
        "Minstr/s");
    put("vm.dual_instructions", tally.get("vm.dual_instructions") / rounds,
        "count");
    put("os.kernel_build_us", median(tally.samples("os.kernel_build_us")),
        "us");
    put("os.syscalls", tally.get("os.syscalls") / rounds, "count");
    put("ldx.setup_ms", tally.get("ldx.setup_ms") / duals, "ms");
    put("ldx.run_ms", tally.get("ldx.run_ms") / duals, "ms");
    put("ldx.verdict_ms", tally.get("ldx.verdict_ms") / duals, "ms");
    for (const char *count :
         {"ldx.driver_yields", "ldx.chan_mutex_acquisitions",
          "ldx.watchdog_polls", "ldx.watchdog_expired",
          "ldx.syscall_diffs", "ldx.findings", "obs.recorder_events"})
        put(count, tally.get(count) / rounds, "count");
    put("ldx.backoff_ms", tally.get("ldx.backoff_ms") / rounds, "ms");
    put("obs.recorder_ms", tally.get("obs.recorder_ms") / rounds, "ms");
}

} // namespace ldx::perfbench
