#include "query/scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "support/diag.h"

namespace ldx::query {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Done: return "done";
      case RunStatus::Cancelled: return "cancelled";
      case RunStatus::Failed: return "failed";
    }
    return "?";
}

std::vector<RunOutcome>
runOnPool(std::size_t count, const std::function<void(std::size_t)> &fn,
          const SchedulerConfig &cfg)
{
    if (cfg.shared)
        return cfg.shared->runTenant(count, fn, cfg);
    if (cfg.jobs < 1)
        fatal("scheduler requires jobs >= 1");
    // A one-tenant pool of the campaign's own workers. No pool
    // registry: the serve.* gauges belong to a daemon, and the
    // campaign.sched.* tallies land in cfg.registry either way.
    SharedPool::Config pool_cfg;
    pool_cfg.jobs = cfg.jobs;
    SharedPool pool(pool_cfg);
    return pool.runTenant(count, fn, cfg);
}

/** One registered campaign: its queue plus its result plumbing. */
struct SharedPool::Tenant
{
    std::deque<std::size_t> items; ///< submitted, not yet started
    const std::function<void(std::size_t)> *fn = nullptr;
    std::vector<RunOutcome> *outcomes = nullptr;
    std::vector<std::int64_t> *submitUs = nullptr;
    const SchedulerConfig *cfg = nullptr;
    /** Per-worker busy seconds (slot w written by worker w only). */
    std::vector<double> busySeconds;
    std::atomic<int> active{0}; ///< this tenant's items running now
    // The tenant's campaign.* instruments (null without a registry).
    obs::Histogram *queueWait = nullptr;
    obs::Histogram *latency = nullptr;
    obs::Counter *completed = nullptr;
    obs::Gauge *activeGauge = nullptr;
    std::size_t outstanding = 0; ///< submitted, not yet finished
    bool closed = false;
    std::condition_variable roomCv; ///< submitter: backlog below cap
    std::condition_variable doneCv; ///< submitter: fully drained
};

SharedPool::SharedPool(const Config &cfg)
    : jobs_(cfg.jobs < 1 ? 1 : cfg.jobs), registry_(cfg.registry)
{
    if (registry_)
        registry_->gauge("serve.pool.workers")
            .set(static_cast<double>(jobs_));
    threads_.reserve(jobs_);
    for (int w = 0; w < jobs_; ++w)
        threads_.emplace_back(&SharedPool::workerLoop, this, w);
}

SharedPool::~SharedPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

std::size_t
SharedPool::tenantCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenants_.size();
}

SharedPool::Tenant *
SharedPool::pickTenant()
{
    std::size_t n = tenants_.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t idx = (cursor_ + k) % n;
        if (!tenants_[idx]->items.empty()) {
            // Advance past the served tenant so the next worker
            // visit starts at its neighbour: round-robin fairness.
            cursor_ = (idx + 1) % n;
            return tenants_[idx];
        }
    }
    return nullptr;
}

void
SharedPool::workerLoop(int self)
{
    obs::Gauge *active_gauge =
        registry_ ? &registry_->gauge("serve.pool.active_workers")
                  : nullptr;
    obs::Counter *completed =
        registry_ ? &registry_->counter("serve.pool.completed")
                  : nullptr;
    obs::Gauge *inflight_gauge =
        registry_ ? &registry_->gauge("serve.queries_inflight")
                  : nullptr;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [&] {
            return shutdown_ || pickableWork();
        });
        Tenant *t = pickTenant();
        if (!t) {
            if (shutdown_)
                return;
            continue;
        }
        std::size_t item = t->items.front();
        t->items.pop_front();
        const SchedulerConfig &tcfg = *t->cfg;
        RunOutcome &out = (*t->outcomes)[item];
        std::int64_t submitted = (*t->submitUs)[item];
        lock.unlock();

        out.worker = self;
        out.startUs = obs::nowUs();
        out.queueWaitSeconds = (out.startUs - submitted) / 1e6;
        if (t->queueWait)
            t->queueWait->observe(out.queueWaitSeconds);
        std::uint64_t span =
            tcfg.spanIds ? (*tcfg.spanIds)[item] : item;
        obs::emitSpan(tcfg.traceSink, "query.queue-wait", span,
                      obs::kWorkerLaneBase + self, submitted,
                      out.startUs - submitted);
        if (active_gauge)
            active_gauge->set(
                activeWorkers_.fetch_add(1, std::memory_order_relaxed) +
                1);
        if (t->activeGauge)
            t->activeGauge->set(
                t->active.fetch_add(1, std::memory_order_relaxed) + 1);
        auto t0 = std::chrono::steady_clock::now();
        try {
            (*t->fn)(item);
            out.status = RunStatus::Done;
        } catch (const std::exception &e) {
            out.status = RunStatus::Failed;
            out.error = e.what();
        } catch (...) {
            out.status = RunStatus::Failed;
            out.error = "unknown exception";
        }
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        t->busySeconds[self] += out.seconds;
        obs::emitSpan(tcfg.traceSink, "query.exec", span,
                      obs::kWorkerLaneBase + self, out.startUs,
                      static_cast<std::int64_t>(out.seconds * 1e6));
        if (t->activeGauge)
            t->activeGauge->set(
                t->active.fetch_sub(1, std::memory_order_relaxed) - 1);
        if (t->latency)
            t->latency->observe(out.seconds);
        if (t->completed)
            t->completed->inc();
        if (completed)
            completed->inc();
        if (active_gauge)
            active_gauge->set(
                activeWorkers_.fetch_sub(1, std::memory_order_relaxed) -
                1);

        lock.lock();
        --t->outstanding;
        --inflight_;
        if (inflight_gauge)
            inflight_gauge->set(static_cast<double>(inflight_));
        t->roomCv.notify_one();
        if (t->closed && t->outstanding == 0)
            t->doneCv.notify_all();
    }
}

bool
SharedPool::pickableWork()
{
    for (const Tenant *t : tenants_)
        if (!t->items.empty())
            return true;
    return false;
}

std::vector<RunOutcome>
SharedPool::runTenant(std::size_t count,
                      const std::function<void(std::size_t)> &fn,
                      const SchedulerConfig &cfg)
{
    if (cfg.queueCap < 1)
        fatal("scheduler requires queueCap >= 1");

    std::vector<RunOutcome> outcomes(count);
    std::vector<std::int64_t> submit_us(count, 0);
    Tenant tenant;
    tenant.fn = &fn;
    tenant.outcomes = &outcomes;
    tenant.submitUs = &submit_us;
    tenant.cfg = &cfg;
    tenant.busySeconds.assign(static_cast<std::size_t>(jobs_), 0.0);
    if (cfg.registry) {
        tenant.queueWait = &cfg.registry->histogram(
            "campaign.queue_wait_seconds", obs::latencySecondsBounds());
        tenant.latency = &cfg.registry->histogram(
            "campaign.query_seconds", obs::latencySecondsBounds());
        tenant.completed =
            &cfg.registry->counter("campaign.sched.completed");
        tenant.activeGauge =
            &cfg.registry->gauge("campaign.sched.active_workers");
    }
    auto t_tenant = std::chrono::steady_clock::now();

    if (cfg.traceSink) {
        for (int w = 0; w < jobs_; ++w)
            cfg.traceSink->setLaneName(obs::kWorkerLaneBase + w,
                                       "worker-" + std::to_string(w));
    }

    obs::Gauge *inflight_gauge =
        registry_ ? &registry_->gauge("serve.queries_inflight")
                  : nullptr;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        tenants_.push_back(&tenant);
    }

    // Submission loop: block while this tenant's backlog is at its
    // queueCap; stop on cancel (queued items still run, unsubmitted
    // stay Cancelled).
    std::uint64_t cancelled = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) {
            cancelled = count - i;
            break;
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            tenant.roomCv.wait(lock, [&] {
                return tenant.outstanding < cfg.queueCap;
            });
            submit_us[i] = obs::nowUs();
            tenant.items.push_back(i);
            ++tenant.outstanding;
            ++inflight_;
            if (inflight_gauge)
                inflight_gauge->set(static_cast<double>(inflight_));
        }
        workCv_.notify_one();
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        tenant.closed = true;
        tenant.doneCv.wait(lock,
                           [&] { return tenant.outstanding == 0; });
        auto it = std::find(tenants_.begin(), tenants_.end(), &tenant);
        if (it != tenants_.end())
            tenants_.erase(it);
        if (cursor_ >= tenants_.size())
            cursor_ = 0;
    }

    if (cfg.registry) {
        cfg.registry->counter("campaign.sched.submitted")
            .inc(count - cancelled);
        cfg.registry->counter("campaign.sched.cancelled")
            .inc(cancelled);
        cfg.registry->gauge("campaign.sched.jobs")
            .set(static_cast<double>(jobs_));
        cfg.registry->gauge("campaign.sched.active_workers").set(0.0);

        // Utilization: busy seconds per worker over the tenant's wall
        // time (observability only — never in the campaign output).
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t_tenant)
                          .count();
        double busy_total = 0.0;
        for (int w = 0; w < jobs_; ++w) {
            busy_total += tenant.busySeconds[w];
            cfg.registry
                ->gauge("campaign.sched.worker." + std::to_string(w) +
                        ".busy_seconds")
                .set(tenant.busySeconds[w]);
        }
        cfg.registry->gauge("campaign.sched.utilization")
            .set(wall > 0.0 ? busy_total / (wall * jobs_) : 0.0);
    }
    return outcomes;
}

} // namespace ldx::query
