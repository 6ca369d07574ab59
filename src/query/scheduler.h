/**
 * @file
 * Bounded worker pool for campaign queries.
 *
 * The pool runs one dual-execution pair per query on a fixed set of
 * worker threads. Every campaign is a *tenant* of a SharedPool: the
 * process-wide one under `ldx serve`, or a pool of its own `jobs`
 * workers built for the run. Design constraints (docs/CAMPAIGN.md
 * "Scheduler semantics"):
 *
 *  - *Determinism*: results are collected into a slot array indexed
 *    by query id and aggregated only after the tenant drains, so the
 *    campaign's output is byte-identical regardless of worker count
 *    or completion order.
 *  - *Admission control*: at most `queueCap` queries are outstanding
 *    (queued but unfinished) at once; the submitting thread blocks
 *    until workers drain the backlog. This bounds memory for
 *    campaigns with hundreds of thousands of queries.
 *  - *Fairness*: workers draw one item per visit from the tenants in
 *    a rotating order, so one huge campaign cannot starve the rest;
 *    within a tenant, items run oldest-first.
 *  - *Cancellation / graceful drain*: when the cancel flag flips (the
 *    CLI's SIGINT handler), submission stops and queued-but-unstarted
 *    queries return Cancelled; in-flight queries run to completion so
 *    their verdicts are never torn.
 *  - *Deadline/watchdog*: the per-query deadline is enforced by the
 *    engine's wall-clock cap (the query fn maps expiry to a TimedOut
 *    verdict); the scheduler additionally tracks per-query runtime
 *    into the campaign.query_seconds histogram.
 *  - *Telemetry*: per-item queue wait and execution latency land in
 *    the campaign.{queue_wait_seconds,query_seconds} histograms, a
 *    live campaign.sched.active_workers gauge plus post-drain
 *    per-worker busy/utilization gauges feed the progress meter and
 *    the exporter, and when a trace sink is configured every executed
 *    item emits span-correlated queue-wait and exec spans on its
 *    worker's lane (docs/OBSERVABILITY.md "Campaign telemetry").
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace ldx::query {

class SharedPool;

/** How one scheduled query ended. */
enum class RunStatus
{
    Done,       ///< the query fn returned a verdict
    Cancelled,  ///< drained before starting (SIGINT)
    Failed,     ///< the query fn threw; error holds the message
};

/** Stable slug of a run status ("done", "cancelled", "failed"). */
const char *runStatusName(RunStatus s);

/** Scheduler outcome of one query. */
struct RunOutcome
{
    RunStatus status = RunStatus::Cancelled;
    std::string error;     ///< Failed only
    double seconds = 0.0;  ///< wall time inside the query fn
    /** Time between submission and a worker picking the query up. */
    double queueWaitSeconds = 0.0;
    /** obs::nowUs() when the query fn started (0 if never run). */
    std::int64_t startUs = 0;
    int worker = -1;       ///< worker that ran it (observability only)
};

/** Pool configuration. */
struct SchedulerConfig
{
    /** Worker threads of the run's own pool (>= 1; unused if shared). */
    int jobs = 1;

    /** Max outstanding (submitted, unfinished) queries (>= 1). */
    std::size_t queueCap = 256;

    /** Cooperative cancellation flag (may be null). */
    const std::atomic<bool> *cancel = nullptr;

    /** Campaign metrics registry (may be null). */
    obs::Registry *registry = nullptr;

    /**
     * Span-correlated trace sink (may be null). Each executed item
     * emits a `query.queue-wait` and a `query.exec` span on its
     * worker's lane (obs::kWorkerLaneBase + worker) carrying the
     * item's span id.
     */
    obs::TraceSink *traceSink = nullptr;

    /**
     * Optional map from pool item index to the stable span id on
     * emitted trace records — the campaign passes query indices here
     * because it only schedules cache misses. Item index itself when
     * null. Must outlive the pool and have `count` entries.
     */
    const std::vector<std::size_t> *spanIds = nullptr;

    /**
     * When set, the run executes as one tenant of this process-wide
     * pool instead of a pool of its own `jobs` workers: `jobs` is
     * ignored (the pool owns the thread count) while `queueCap`,
     * `cancel`, `registry`, `traceSink` and `spanIds` keep their
     * per-campaign meaning. Results land in a slot array indexed by
     * item either way, so campaign output is byte-identical.
     */
    SharedPool *shared = nullptr;
};

/**
 * Run @p fn(i) for every i in [0, count) on the pool and return one
 * outcome per index. @p fn must be thread-safe across distinct
 * indices; it is invoked at most once per index.
 */
std::vector<RunOutcome> runOnPool(std::size_t count,
                                  const std::function<void(std::size_t)> &fn,
                                  const SchedulerConfig &cfg);

/**
 * Process-wide worker pool shared by many concurrent campaigns
 * (`ldx serve`). Each campaign registers as a *tenant* with its own
 * FIFO queue; workers draw from tenants with a rotating fair cursor,
 * one item per visit, so a huge job cannot starve small ones (within
 * a tenant, items run oldest-first). Per-tenant admission is the
 * campaign's own `queueCap`: a tenant's submitter blocks while its
 * backlog is at cap.
 *
 * Determinism: outcomes land in the tenant's slot array and each
 * campaign aggregates only after its own drain, so the bytes a
 * tenant produces are independent of pool size and of whatever the
 * other tenants are doing.
 */
class SharedPool
{
  public:
    struct Config
    {
        /** Worker threads shared by all tenants (>= 1). */
        int jobs = 1;
        /** Server-wide metrics registry (may be null): feeds the
         *  serve.pool.* counters and serve.queries_inflight gauge. */
        obs::Registry *registry = nullptr;
    };

    explicit SharedPool(const Config &cfg);
    ~SharedPool();

    SharedPool(const SharedPool &) = delete;
    SharedPool &operator=(const SharedPool &) = delete;

    int jobs() const { return jobs_; }

    /** Tenants currently registered (drained tenants drop off). */
    std::size_t tenantCount() const;

    /**
     * Execute one campaign's items as a tenant (runOnPool's only
     * path); blocks until every submitted item finished (cancelled
     * items are never started). Writes the tenant's campaign.sched.*
     * tallies and post-drain gauges into cfg.registry.
     */
    std::vector<RunOutcome>
    runTenant(std::size_t count,
              const std::function<void(std::size_t)> &fn,
              const SchedulerConfig &cfg);

  private:
    struct Tenant;

    void workerLoop(int self);
    Tenant *pickTenant();  ///< fair rotating scan; mutex_ held
    bool pickableWork();   ///< any tenant has queued items; mutex_ held

    int jobs_;
    obs::Registry *registry_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;
    std::vector<Tenant *> tenants_; ///< registration order
    std::size_t cursor_ = 0;        ///< next tenant slot to serve
    std::size_t inflight_ = 0;      ///< submitted, unfinished (all tenants)
    std::atomic<int> activeWorkers_{0};
    bool shutdown_ = false;
    std::vector<std::thread> threads_;
};

} // namespace ldx::query
