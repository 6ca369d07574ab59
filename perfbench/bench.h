/**
 * @file
 * Shared pieces of the ldx benchmark harness (see README.md): the
 * command line, the span tracer, order statistics, program
 * preparation, the Fig. 6 row protocol and the result line.
 *
 * The harness measures ldx from outside. Every timing it reports is
 * taken by this code around a call into one of the repository's
 * public functions; spans are recorded at the same call boundaries
 * when tracing is on (`--trace 1`).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "ldx/engine.h"
#include "os/world.h"
#include "vm/predecode.h"
#include "workloads/workloads.h"

namespace ldx::perfbench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string ldxPath;   ///< the `ldx` binary (serve workload)
    std::string goldenDir; ///< golden corpus graphs
    std::string workDir;   ///< sockets and span files
};

/** Seconds on the steady clock. */
double nowSeconds();

/** Microseconds on the steady clock (span timeline). */
std::int64_t nowMicros();

/** splitmix64 stream: every seeded input of the benchmark. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** A seeded permutation of 0..n-1. */
    std::vector<std::size_t> order(std::size_t n);

  private:
    std::uint64_t state_;
};

// ---------------------------------------------------------------- spans

/** One recorded span: a call into one layer. */
struct Span
{
    std::string name;
    std::int64_t startUs = 0;
    std::int64_t endUs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< shared by the spans of one operation
};

/**
 * In-memory span store. Spans are appended under a mutex (the serve
 * workload records from several client threads) and written out once
 * when the run ends.
 */
class Tracer
{
  public:
    std::uint64_t nextId();
    void add(Span span);

    /** Total duration (ms) of the spans named @p name. */
    double totalMs(const std::string &name) const;

    /** Write every span as one JSON array to @p path. */
    bool write(const std::string &path) const;

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_ = 1;
};

/**
 * RAII span around one call. With a null tracer it only reads the
 * clock once at each end (the untraced runs pay no recording cost).
 */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, std::uint64_t parent = 0,
              std::uint64_t request = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Tracer *tracer_;
    Span span_;
};

// ----------------------------------------------------------- statistics

double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/**
 * The highest percentile, at most @p pct, that has at least ten
 * samples beyond it (nearest-rank); the median when the sample is
 * smaller than twenty.
 */
double tailPercentile(std::vector<double> v, double pct);

// ---------------------------------------------------------- preparation

/** One program prepared for measurement. */
struct Program
{
    std::string name;
    const workloads::Workload *workload = nullptr; ///< null for corpus
    std::uint64_t corpusSeed = 0;
    std::string source;
    int scale = 1;

    std::unique_ptr<ir::Module> plain;        ///< uninstrumented
    std::unique_ptr<ir::Module> instrumented; ///< counter pass applied
    std::shared_ptr<vm::PredecodedModule> plainDecoded;
    std::shared_ptr<vm::PredecodedModule> instrDecoded;
    os::WorldSpec world;
    core::SinkConfig sinks;

    /** Sources mutated by the Fig. 6 "mutated" column. */
    std::vector<core::SourceSpec> mutated;

    /** Guest starts threads (threaded-driver counters vary). */
    bool concurrent = false;
};

/** A named program: built-in workload or promoted corpus entry. */
Program describeProgram(const std::string &name, int scale);

/**
 * Compile, instrument, build the world and predecode @p p, recording
 * lang.compile / instrument / os.world / vm.predecode spans.
 */
void prepareProgram(Program &p, Tracer *tracer, std::uint64_t parent);

/** Names of the 12 promoted corpus programs. */
std::vector<std::string> corpusNames();

// ----------------------------------------------------- per-layer tallies

/**
 * Layer tallies collected from traced operations (counts and summed
 * times). Thread-safe; the serve workload adds from several threads.
 */
class Tally
{
  public:
    void add(const std::string &name, double v);
    double get(const std::string &name) const;
    /** Every sample added under @p name (for medians). */
    void sample(const std::string &name, double v);
    std::vector<double> samples(const std::string &name) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> sums_;
    std::map<std::string, std::vector<double>> samples_;
};

/** Fold one dual run's engine counters and phases into @p t. */
void tallyDual(Tally &t, const core::DualResult &r);

// ------------------------------------------------------ Fig. 6 protocol

/** Per-run times (ms) of one Fig. 6 row in one round. */
struct RowTimes
{
    double nativeMs = 0;
    double sameMs = 0;
    double mutatedMs = 0;
    double dualSeconds = 0; ///< time inside the dual batches
    int dualRuns = 0;
};

/** Fixed settings of one row. */
struct RowPlan
{
    Program *program = nullptr;
    int batch = 1;         ///< runs per timed native batch
    int dualBatch = 1;     ///< runs per timed dual batch
    bool threaded = true;  ///< Fig. 6 driver (false = lockstep)
    bool checkSame = true; ///< same-input run must be clean
    std::uint64_t masterInstructions = 0; ///< reference for checks
    bool longRow = false;
};

/** Outcome counters of the operations a workload attempted. */
struct OpCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< failed correctness checks
};

/**
 * Instructions one VM retires running @p p's instrumented module
 * natively — the reference every mutated master must match.
 */
std::uint64_t instrumentedNativeInstructions(const Program &p);

/**
 * Set a row's batch sizes to the number of runs that makes each timed
 * batch last at least @p targetMs, from one untimed run of each op.
 */
void calibrateBatches(RowPlan &row, double targetMs);

/**
 * Time one row: a native batch, a same-input dual batch and a
 * mutated dual batch, in an order rotated by @p rotate. Checks each
 * run; with a tracer (traced rounds) also records spans and folds
 * engine counters into @p tally, and times a recorder-off mutated
 * batch for obs.recorder_ms.
 */
RowTimes runRow(const RowPlan &row, int rotate, Tracer *tracer,
                Tally *tally, OpCount &ops);

/** Whether @p name is one of the five long Fig. 6 rows. */
bool isLongRow(const std::string &name);

/**
 * The Fig. 6 rows of a workload's own programs on the lockstep driver
 * (the campaign and serve reference rows), batches sized to at least
 * 5 ms. A corpus program mutates the first queryable source its
 * baseline finds, at offset 0.
 */
std::vector<RowPlan> referenceRows(std::vector<Program> &programs);

/** Fig. 6 metrics over a set of rows (medians over rounds). */
struct Fig6Summary
{
    double nativeMs = 0;
    double dualMs = 0;
    double overheadSame = 0;
    double overheadMutated = 0;
    double overheadLong = 0;
};

Fig6Summary summarizeRows(const std::vector<RowPlan> &rows,
                          const std::vector<std::vector<RowTimes>> &rounds);

// ---------------------------------------------------------- the result

/** One metric of the result line. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything a workload run reports. */
struct RunResult
{
    OpCount ops;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    std::vector<std::string> notes; ///< printed as `# ` lines
};

/**
 * Per-layer metrics shared by every workload, from the setup spans
 * (@p setupReps repetitions) and the tallies of @p tracedRounds
 * traced rounds: lang, instrument, vm, os, ldx and obs.
 */
void layerMetrics(RunResult &res, const Tally &tally, const Tracer &tracer,
                  int tracedRounds, int setupReps);

/** Workload entry points. */
RunResult runFig6(const Args &args);
RunResult runCampaignWorkload(const Args &args);
RunResult runServe(const Args &args);

/** Median seconds of @p reps runs of @p fn. */
double medianSetupSeconds(int reps, const std::function<void()> &fn);

} // namespace ldx::perfbench
