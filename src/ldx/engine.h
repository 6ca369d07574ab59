/**
 * @file
 * The LDX dual-execution engine.
 *
 * Given an instrumented module and a world, the engine derives the
 * slave's world (sources mutated per the configuration, nondeterminism
 * seeds changed), pre-taints the mutated resources, couples a master
 * and a slave VM through the counter-based protocol, runs them with
 * either the deterministic lockstep driver or two OS threads, and
 * returns the causality verdict.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ir.h"
#include "ldx/mutation.h"
#include "ldx/report.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "os/world.h"
#include "vm/machine.h"

namespace ldx::core {

/** Which output channels count as sinks (§8 "Benchmark Programs"). */
struct SinkConfig
{
    bool net = true;      ///< outgoing network syscalls
    bool file = true;     ///< local file writes
    bool console = true;  ///< console prints
    bool retTokens = false;   ///< corrupted return tokens (attacks)
    bool allocSizes = false;  ///< malloc size arguments (attacks)

    /** Channel predicate used by the controllers. */
    bool matchesChannel(const std::string &channel) const;
};

/**
 * Threaded-driver stall backoff (pause -> yield -> sleep). A stalled
 * side first spins with a cpu-relax hint (the peer usually publishes
 * within a few hundred cycles), then yields its timeslice, then
 * sleeps in short bursts, so an idle waiter neither burns a core nor
 * steals cycles from a busy peer. Time spent in the sleep stage is
 * accounted in the driver.backoff_ns counter; yields (stage two and
 * three) keep feeding driver.yields.
 */
struct DriverConfig
{
    /** Stalled poll rounds spent in cpu-relax spins. */
    std::uint32_t spinCount = 64;
    /** Further stalled rounds spent yielding before sleeping. */
    std::uint32_t yieldCount = 64;
    /** Sleep length per stalled round once spin/yield are exhausted. */
    std::uint32_t sleepMicros = 50;
};

/** Engine configuration. */
struct EngineConfig
{
    SinkConfig sinks;

    /** Threaded-driver stall backoff (--spin-policy on the CLI). */
    DriverConfig driver;

    /** Sources mutated in the slave. */
    std::vector<SourceSpec> sources;
    MutationStrategy strategy = MutationStrategy::OffByOne;
    std::uint64_t mutationSeed = 7;

    /** Run master and slave on two OS threads (Fig. 6 setting). */
    bool threaded = false;

    /** Share lock acquisition order master -> slave (§7). */
    bool shareLockOrder = true;

    /** VM configuration common to both sides. */
    vm::MachineConfig vmConfig;

    /** Extra scheduler seed for the slave (0 = same schedule). */
    std::uint64_t slaveSchedSeedDelta = 0;

    /** Salt for the slave's nondeterminism seeds. */
    std::uint64_t nondetSalt = 1;

    /**
     * Watchdog budgets, counted in polls, not time. An input, sink or
     * barrier wait gives up after stallTimeout consecutive polls in
     * which the peer retires nothing — i.e. the pair is in a
     * genuinely unresolvable mutual wait, where decoupling is the
     * correct outcome anyway. A slave lock-follow wait taints its
     * mutex after lockPollTimeout polls. The lockstep driver skips
     * the idle rounds of a mutual wait instead of spinning them, with
     * identical counts (docs/PERFORMANCE.md, "Lockstep idle
     * fast-forward").
     */
    std::uint64_t stallTimeout = 100'000;
    std::uint64_t lockPollTimeout = 50'000;

    /**
     * Hard wall-clock cap (seconds) before declaring a deadlock. Both
     * drivers judge it by elapsed time, whether or not the pair is
     * making progress (lockstep checks every 8192 rounds and every
     * 2^20 instructions of a longer turn), and stop stepping once it
     * has passed, leaving unfinished sides where they stand. The
     * threaded driver also marks a run that outlasts the cap
     * deadlocked even if both sides finished first.
     */
    double wallClockCap = 120.0;

    /** Record a Fig. 3-style alignment trace into DualResult::trace. */
    bool recordTrace = false;

    /**
     * Keep a flight recorder (per-side slow-path event rings) and, on
     * any non-clean outcome, attach a DivergenceReport to the result.
     * Default on: events are only recorded at operations that already
     * pay for a mutex or an atomic, so the cost is negligible
     * (bench/interp_throughput measures the on-vs-off delta).
     */
    bool flightRecorder = true;

    /** Per-side flight-recorder ring capacity (events kept). */
    std::size_t recorderCapacity = obs::FlightRecorder::kDefaultCapacity;

    /**
     * stepMany batch size for the lockstep driver; 0 means unbounded
     * (each side runs until its first blocked poll). The protocol
     * outcome must be independent of this value — it only trades
     * dispatch overhead against alternation granularity. Exposed so
     * tests can pin batch-boundary behaviour.
     */
    std::uint64_t lockstepQuantum = 64;

    /**
     * Metrics registry to accumulate into. When null the engine uses
     * a private registry whose totals are still returned in
     * DualResult::metrics; pass one to accumulate across runs (the
     * bench harnesses) or to read counters while a run is live.
     */
    obs::Registry *registry = nullptr;

    /**
     * Structured trace sink (JSONL / Chrome trace_event). Alignment
     * actions, VM thread lifecycle, kernel outputs, and phase timing
     * are emitted with per-side lanes. Null disables emission.
     */
    obs::TraceSink *traceSink = nullptr;

    /**
     * Guest-level site profiles (`ldx profile`): when set, each VM
     * attributes per-site cost into its SiteCounters and each
     * controller folds gate stalls into the same struct's
     * gateStalls. Shapes are established by the machines; pass
     * default-constructed instances. Requires vmConfig.predecode.
     */
    obs::SiteCounters *masterSites = nullptr;
    obs::SiteCounters *slaveSites = nullptr;
};

/** Dual-execution engine. */
class DualEngine
{
  public:
    /**
     * @param module  counter-instrumented module (fatal otherwise)
     * @param world   the master's environment
     */
    DualEngine(const ir::Module &module, os::WorldSpec world,
               EngineConfig cfg);

    /** Execute master and slave to completion. */
    DualResult run();

  private:
    const ir::Module &module_;
    os::WorldSpec world_;
    EngineConfig cfg_;
};

} // namespace ldx::core
