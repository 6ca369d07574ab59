#include "ldx/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "instrument/instrument.h"
#include "ldx/controller.h"
#include "obs/phase.h"
#include "obs/scope.h"
#include "os/sysno.h"
#include "support/diag.h"
#include "support/strings.h"

namespace ldx::core {

bool
SinkConfig::matchesChannel(const std::string &channel) const
{
    if (startsWith(channel, "net:"))
        return net;
    if (startsWith(channel, "file:"))
        return file;
    if (channel == "console")
        return console;
    return true;
}

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** CPU-relax hint for the spin stage of the stall backoff. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

/** Publish one side's VM and kernel tallies into the registry. */
void
publishSideStats(obs::Registry &registry, const std::string &side,
                 const vm::MachineStats &ms, const os::KernelStats &ks)
{
    const std::string vm_prefix = "vm." + side + ".";
    registry.counter(vm_prefix + "instructions").inc(ms.instructions);
    registry.counter(vm_prefix + "syscalls").inc(ms.syscalls);
    registry.counter(vm_prefix + "barriers").inc(ms.barriers);
    registry.counter(vm_prefix + "mix.data").inc(ms.mixData);
    registry.counter(vm_prefix + "mix.alu").inc(ms.mixAlu);
    registry.counter(vm_prefix + "mix.mem").inc(ms.mixMem);
    registry.counter(vm_prefix + "mix.call").inc(ms.mixCall);
    registry.counter(vm_prefix + "mix.branch").inc(ms.mixBranch);
    registry.counter(vm_prefix + "mix.syscall").inc(ms.mixSyscall);
    registry.counter(vm_prefix + "mix.counter").inc(ms.mixCounter);
    registry.gauge(vm_prefix + "max_cnt")
        .set(static_cast<double>(ms.maxCnt));
    registry.gauge(vm_prefix + "avg_cnt").set(ms.avgCnt);

    const std::string os_prefix = "os." + side + ".";
    registry.counter(os_prefix + "executes").inc(ks.executes);
    registry.counter(os_prefix + "replays").inc(ks.replays);
    registry.counter(os_prefix + "vfs_ops").inc(ks.vfsOps);
    registry.counter(os_prefix + "sock_ops").inc(ks.sockOps);
    registry.counter(os_prefix + "console_ops").inc(ks.consoleOps);
    registry.counter(os_prefix + "nondet_ops").inc(ks.nondetOps);
}

/**
 * Records VM-level sink events (return-token corruptions and
 * allocation sizes, the vulnerable-program sink set); the verdict
 * compares the master's and the slave's full event streams.
 */
class SinkRecorder : public vm::SinkHook
{
  public:
    static constexpr std::size_t kCap = 65536;

    SinkRecorder(bool record_rets, bool record_allocs)
        : recordRets_(record_rets), recordAllocs_(record_allocs)
    {}

    void
    onRetToken(int tid, std::uint64_t, std::int64_t token,
               std::int64_t expected, vm::Machine &) override
    {
        // Only corruptions are interesting: a healthy return matches.
        if (recordRets_ && token != expected &&
            corruptions.size() < kCap)
            corruptions.push_back({tid, token});
    }

    void
    onAllocSize(int tid, std::int64_t size, vm::Machine &) override
    {
        if (recordAllocs_ && allocs.size() < kCap)
            allocs.push_back({tid, size});
    }

    std::vector<std::pair<int, std::int64_t>> corruptions;
    std::vector<std::pair<int, std::int64_t>> allocs;

  private:
    bool recordRets_;
    bool recordAllocs_;
};

/**
 * One dual execution. The constructor performs the mutate and setup
 * phases, drive() runs both machines to completion on the configured
 * driver, and finish() builds the DualResult. Single-use.
 */
class DualRun
{
  public:
    DualRun(const ir::Module &module, const os::WorldSpec &world,
            const EngineConfig &cfg);

    void drive();
    DualResult finish();

  private:
    void driveLockstep();
    void driveThreaded();

    /**
     * Lockstep idle fast-forward after an idle round; false when the
     * pair can never move again.
     */
    bool skipIdleRounds();

    /** Declare the pair timed out and stop both sides where they are. */
    void timeOut();

    const ir::Module &module_;
    const os::WorldSpec &world_;
    const EngineConfig &cfg_;
    MutatedWorld mutated_;

    obs::Registry localRegistry_;
    obs::Registry *registry_ = nullptr;
    std::optional<obs::FlightRecorder> recorder_;
    std::optional<obs::Scope> scope_;
    std::optional<obs::PhaseTimer> timer_;
    std::optional<SyncChannel> chan_;
    std::optional<os::Kernel> masterKernel_;
    std::optional<os::Kernel> slaveKernel_;
    std::optional<vm::Machine> master_;
    std::optional<vm::Machine> slave_;
    std::optional<Controller> masterCtl_;
    std::optional<Controller> slaveCtl_;
    std::optional<SinkRecorder> masterRec_;
    std::optional<SinkRecorder> slaveRec_;

    bool deadlocked_ = false;
    std::chrono::steady_clock::time_point t0_;
    obs::Counter *driverYields_ = nullptr;
    obs::Counter *driverIdle_ = nullptr;
    obs::Counter *driverBackoff_ = nullptr;
};

DualRun::DualRun(const ir::Module &module, const os::WorldSpec &world,
                 const EngineConfig &cfg)
    : module_(module), world_(world), cfg_(cfg)
{
    registry_ = cfg_.registry ? cfg_.registry : &localRegistry_;
    if (cfg_.flightRecorder)
        recorder_.emplace(cfg_.recorderCapacity);
    scope_.emplace(*registry_, cfg_.traceSink,
                   recorder_ ? &*recorder_ : nullptr);
    if (cfg_.traceSink) {
        cfg_.traceSink->setLaneName(obs::kMasterLane, "master");
        cfg_.traceSink->setLaneName(obs::kSlaveLane, "slave");
        cfg_.traceSink->setLaneName(obs::kPipelineLane, "pipeline");
    }
    timer_.emplace(cfg_.traceSink);

    timer_->begin("mutate");
    Prng mutation_prng(cfg_.mutationSeed);
    mutated_ = mutateWorld(world_, cfg_.sources, cfg_.strategy,
                           mutation_prng);
    os::WorldSpec slave_world =
        mutated_.world.withNondetVariant(cfg_.nondetSalt);
    timer_->end();

    timer_->begin("setup");
    chan_.emplace(*scope_);
    chan_->traceEnabled = cfg_.recordTrace;
    for (const std::string &key : mutated_.taintKeys) {
        chan_->taints.taint(key);
        if (recorder_) {
            // The mutation events open the slave's timeline: the first
            // divergence in a report is always downstream of one.
            obs::RecEvent evt;
            evt.kind = obs::RecKind::Mutation;
            evt.arg = obs::fnv1a(key);
            recorder_->record(obs::kSlaveLane, evt);
        }
    }

    masterKernel_.emplace(world_);
    slaveKernel_.emplace(slave_world);
    slaveKernel_->setSuppressOutputs(true);
    masterKernel_->setObs(&*scope_, obs::kMasterLane);
    slaveKernel_->setObs(&*scope_, obs::kSlaveLane);

    vm::MachineConfig master_cfg = cfg_.vmConfig;
    vm::MachineConfig slave_cfg = cfg_.vmConfig;
    slave_cfg.schedSeed += cfg_.slaveSchedSeedDelta;
    if (cfg_.slaveSchedSeedDelta)
        slave_cfg.schedJitter = true;
    master_cfg.siteProfile = cfg_.masterSites;
    slave_cfg.siteProfile = cfg_.slaveSites;

    master_.emplace(module_, *masterKernel_, master_cfg);
    slave_.emplace(module_, *slaveKernel_, slave_cfg);
    master_->setObs(&*scope_, obs::kMasterLane);
    slave_->setObs(&*scope_, obs::kSlaveLane);

    auto sink_pred = [this](const std::string &channel) {
        return cfg_.sinks.matchesChannel(channel);
    };
    ControllerOptions mo;
    mo.side = Side::Master;
    mo.isSinkChannel = sink_pred;
    mo.shareLockOrder = cfg_.shareLockOrder;
    mo.lockPollTimeout = cfg_.lockPollTimeout;
    mo.stallTimeout = cfg_.stallTimeout;
    mo.stalls =
        cfg_.masterSites ? &cfg_.masterSites->gateStalls : nullptr;
    ControllerOptions so = mo;
    so.side = Side::Slave;
    so.stalls = cfg_.slaveSites ? &cfg_.slaveSites->gateStalls : nullptr;
    masterCtl_.emplace(*chan_, mo);
    slaveCtl_.emplace(*chan_, so);
    master_->setSyscallPort(&*masterCtl_);
    slave_->setSyscallPort(&*slaveCtl_);

    masterRec_.emplace(cfg_.sinks.retTokens, cfg_.sinks.allocSizes);
    slaveRec_.emplace(cfg_.sinks.retTokens, cfg_.sinks.allocSizes);
    if (cfg_.sinks.retTokens || cfg_.sinks.allocSizes) {
        master_->setSinkHook(&*masterRec_);
        slave_->setSinkHook(&*slaveRec_);
    }
    timer_->end(); // setup
}

void
DualRun::drive()
{
    t0_ = std::chrono::steady_clock::now();
    driverYields_ = &registry_->counter("driver.yields");
    driverIdle_ = &registry_->counter("driver.idle_rounds");
    driverBackoff_ = &registry_->counter("driver.backoff_ns");
    timer_->begin("dual-run");
    master_->start();
    slave_->start();
    if (cfg_.threaded)
        driveThreaded();
    else
        driveLockstep();
    timer_->end(); // dual-run
}

void
DualRun::driveLockstep()
{
    const std::uint64_t kQuantum =
        cfg_.lockstepQuantum
            ? cfg_.lockstepQuantum
            : std::numeric_limits<std::uint64_t>::max();
    // The cap is judged by elapsed time, busy or idle, and the pair
    // stops where it stands once it has passed. It is checked every
    // 8192 rounds and, within a side's turn longer than kCapSlice
    // instructions, between slices; a turn taken in slices retires
    // exactly what one stepMany call would.
    constexpr std::uint64_t kCapSlice = 1 << 20;
    auto cap_passed = [this] {
        return secondsSince(t0_) > cfg_.wallClockCap;
    };
    std::uint64_t rounds = 0;
    while (!(master_->finished() && slave_->finished())) {
        masterCtl_->beginRound();
        slaveCtl_->beginRound();
        bool progressed = false;
        for (int side = 0; side < 2; ++side) {
            vm::Machine &m = side == 0 ? *master_ : *slave_;
            if (m.finished())
                continue;
            std::uint64_t left = kQuantum;
            vm::StepStatus st = vm::StepStatus::Progress;
            while (st == vm::StepStatus::Progress && left > 0) {
                std::uint64_t got = 0;
                st = m.stepMany(std::min(left, kCapSlice), got);
                left -= got;
                if (got) {
                    progressed = true;
                    chan_->progress[side].fetch_add(
                        got, std::memory_order_relaxed);
                }
                if (st == vm::StepStatus::Progress && left > 0 &&
                    cap_passed()) {
                    timeOut();
                    return;
                }
            }
        }
        if (++rounds % 8192 == 0 && cap_passed()) {
            timeOut();
            return;
        }
        if (progressed)
            continue;
        driverIdle_->inc();
        if (!skipIdleRounds()) {
            timeOut();
            return;
        }
    }
}

bool
DualRun::skipIdleRounds()
{
    if (!masterCtl_->roundQuiescent() || !slaveCtl_->roundQuiescent())
        return true;
    for (const vm::Machine *m : {&*master_, &*slave_}) {
        if (!m->finished() && !m->idleRoundRepeats())
            return true;
    }
    // Every further round would repeat this one until the first
    // budget expires; jump to the round in which it does and let that
    // one run for real, so the decouple lands on the same poll.
    const std::uint64_t n = std::min(masterCtl_->roundsToExpiry(),
                                     slaveCtl_->roundsToExpiry());
    if (n == std::numeric_limits<std::uint64_t>::max())
        return false; // no wait has a budget: the pair can never move
    for (vm::Machine *m : {&*master_, &*slave_}) {
        if (!m->finished())
            m->skipIdleRounds(n);
    }
    masterCtl_->skipRounds(n);
    slaveCtl_->skipRounds(n);
    driverIdle_->inc(n);
    return true;
}

void
DualRun::timeOut()
{
    deadlocked_ = true;
    chan_->abort.store(true, std::memory_order_release);
}

void
DualRun::driveThreaded()
{
    const DriverConfig dc = cfg_.driver;
    SyncChannel &chan = *chan_;
    obs::PhaseTimer &timer = *timer_;
    obs::Counter *driver_yields = driverYields_;
    obs::Counter *driver_backoff = driverBackoff_;
    std::mutex doneMutex;
    std::condition_variable doneCv;
    int sides_done = 0;
    auto loop = [&chan, &timer, &doneMutex, &doneCv, &sides_done, dc,
                 driver_yields, driver_backoff](vm::Machine &m, int side) {
        std::int64_t start_us = obs::nowUs();
        auto side_t0 = std::chrono::steady_clock::now();
        std::uint64_t stalls = 0;
        // An abort (the cap passed) stops the side where it stands.
        while (!m.finished() &&
               !chan.abort.load(std::memory_order_relaxed)) {
            std::uint64_t got = 0;
            vm::StepStatus st = m.stepMany(128, got);
            if (got)
                chan.progress[side].fetch_add(
                    got, std::memory_order_relaxed);
            if (st == vm::StepStatus::Progress) {
                stalls = 0;
            } else if (st == vm::StepStatus::Stalled) {
                if (got) {
                    stalls = 0;
                    continue; // partial batch: poll again at once
                }
                ++stalls;
                if (stalls <= dc.spinCount) {
                    cpuRelax();
                } else if (stalls <= std::uint64_t{dc.spinCount} +
                                         dc.yieldCount) {
                    driver_yields->inc();
                    std::this_thread::yield();
                } else {
                    driver_yields->inc();
                    auto b0 = std::chrono::steady_clock::now();
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(dc.sleepMicros));
                    driver_backoff->inc(static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - b0)
                            .count()));
                }
            } else {
                break;
            }
        }
        timer.record(side == 0 ? "master-run" : "slave-run", 1,
                     start_us, secondsSince(side_t0));
        {
            std::lock_guard<std::mutex> lock(doneMutex);
            ++sides_done;
        }
        doneCv.notify_one();
    };
    std::thread mt(loop, std::ref(*master_), 0);
    std::thread st(loop, std::ref(*slave_), 1);
    {
        // Wake as soon as both sides settle or the cap passes; clamp
        // the cap so the deadline arithmetic cannot overflow.
        const auto deadline =
            t0_ + std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(
                          std::min(cfg_.wallClockCap, 1e9)));
        std::unique_lock<std::mutex> lock(doneMutex);
        deadlocked_ = !doneCv.wait_until(
            lock, deadline, [&sides_done] { return sides_done == 2; });
    }
    if (deadlocked_)
        timeOut();
    mt.join();
    st.join();
    // The cap is judged by elapsed time: a pair that outlasted it is
    // timed out even if both sides finished on their own.
    if (secondsSince(t0_) > cfg_.wallClockCap)
        deadlocked_ = true;
}

DualResult
DualRun::finish()
{
    obs::Registry &registry = *registry_;
    SyncChannel &chan = *chan_;
    vm::Machine &master = *master_;
    vm::Machine &slave = *slave_;

    timer_->begin("verdict");
    DualResult res;
    res.wallSeconds = secondsSince(t0_);
    res.deadlocked = deadlocked_;
    res.findings = chan.takeFindings();
    if (cfg_.recordTrace)
        res.trace = chan.takeTrace();
    // The registry is the single source for the alignment tallies;
    // the legacy result fields read back the same counters, so
    // DualResult::metrics agrees with them exactly.
    res.alignedSyscalls = chan.alignedSyscalls->value();
    res.syscallDiffs = chan.syscallDiffs->value();
    res.totalSlaveSyscalls = chan.slaveSyscalls->value();
    res.barrierPairings = chan.barrierPairings->value();
    res.masterExit = master.exitCode();
    res.slaveExit = slave.exitCode();
    res.masterTrapped = master.trap().has_value();
    res.slaveTrapped = slave.trap().has_value();
    if (master.trap())
        res.masterTrapMessage = master.trap()->message;
    if (slave.trap())
        res.slaveTrapMessage = slave.trap()->message;
    res.masterStats = master.stats();
    res.slaveStats = slave.stats();
    res.taintedResources = chan.taints.snapshot();

    // Return-token sinks: any difference in the corruption event
    // streams is causality between the mutated input and control
    // state.
    if (cfg_.sinks.retTokens &&
        masterRec_->corruptions != slaveRec_->corruptions) {
        Finding f;
        f.kind = CauseKind::RetTokenDiff;
        f.observer = Side::Master;
        f.masterValue =
            std::to_string(masterRec_->corruptions.size()) +
            " corruption(s)";
        f.slaveValue = std::to_string(slaveRec_->corruptions.size()) +
                       " corruption(s)";
        res.findings.push_back(std::move(f));
    }

    // Allocation-size sinks: pairwise comparison of malloc arguments.
    if (cfg_.sinks.allocSizes) {
        std::size_t n = std::min(masterRec_->allocs.size(),
                                 slaveRec_->allocs.size());
        int reported = 0;
        for (std::size_t i = 0; i < n && reported < 32; ++i) {
            if (masterRec_->allocs[i] != slaveRec_->allocs[i]) {
                Finding f;
                f.kind = CauseKind::AllocSizeDiff;
                f.observer = Side::Master;
                f.masterValue =
                    std::to_string(masterRec_->allocs[i].second);
                f.slaveValue =
                    std::to_string(slaveRec_->allocs[i].second);
                res.findings.push_back(std::move(f));
                ++reported;
            }
        }
        if (masterRec_->allocs.size() != slaveRec_->allocs.size()) {
            Finding f;
            f.kind = CauseKind::AllocSizeDiff;
            f.observer = Side::Master;
            f.masterValue =
                std::to_string(masterRec_->allocs.size()) + " allocs";
            f.slaveValue =
                std::to_string(slaveRec_->allocs.size()) + " allocs";
            res.findings.push_back(std::move(f));
        }
    }

    // Termination divergence (e.g., the slave crashed under mutation).
    bool master_hijack = res.masterTrapped;
    bool slave_hijack = res.slaveTrapped;
    if (master_hijack != slave_hijack ||
        (master_hijack &&
         res.masterTrapMessage != res.slaveTrapMessage)) {
        Finding f;
        f.kind = CauseKind::TerminationDiff;
        f.observer = Side::Master;
        f.masterValue = res.masterTrapped ? res.masterTrapMessage : "ok";
        f.slaveValue = res.slaveTrapped ? res.slaveTrapMessage : "ok";
        res.findings.push_back(std::move(f));
    }

    // Per-channel findings were appended in whatever cross-thread
    // order the controllers hit them, which the threaded driver does
    // not reproduce run to run. Group by tid (stable within a tid,
    // where order is guest-deterministic) so the findings list — and
    // everything derived from it, like divergence.outcome — is
    // identical across drivers and repeated runs.
    std::stable_sort(res.findings.begin(), res.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.tid < b.tid;
                     });

    if (recorder_) {
        obs::FlightRecorder &recorder = *recorder_;
        registry.counter("recorder.events.master")
            .inc(recorder.total(0));
        registry.counter("recorder.events.slave")
            .inc(recorder.total(1));
        registry.counter("recorder.dropped")
            .inc(recorder.dropped(0) + recorder.dropped(1));
        const bool non_clean =
            !res.findings.empty() || res.deadlocked ||
            res.masterTrapped || res.slaveTrapped ||
            chan.decouples->value() || chan.watchdogExpired->value() ||
            chan.sinkDiffs->value() || chan.sinkVanished->value();
        if (non_clean) {
            obs::DivergenceInput in;
            in.recorder = &recorder;
            in.sysName = [](std::int64_t no) {
                return os::sysName(no);
            };
            if (!res.findings.empty())
                in.outcome = causeKindName(res.findings.front().kind);
            else if (res.deadlocked)
                in.outcome = "deadlock";
            else if (chan.watchdogExpired->value())
                in.outcome = "watchdog-expiry";
            else
                in.outcome = "decouple";
            in.mutatedKeys = mutated_.taintKeys;
            in.taintedKeys.assign(res.taintedResources.begin(),
                                  res.taintedResources.end());
            // Both sides have stopped (finished, or halted by a
            // time-out) and the driver threads are joined, so the
            // channels are quiescent: read them
            // without their mutexes (locking here would perturb the
            // chan.mutex_acquisitions tally).
            chan.forEachChannel([&in](int tid, ThreadChannel &ch) {
                obs::ChannelSnapshot snap;
                snap.tid = tid;
                for (int side = 0; side < 2; ++side) {
                    snap.cnt[side] = ch.pos[side].cnt;
                    snap.site[side] = ch.pos[side].site;
                    snap.posKind[side] =
                        static_cast<std::uint8_t>(ch.pos[side].kind);
                    snap.cntStack[side] = ch.cntStack[side];
                    snap.threadDone[side] = ch.threadDone[side];
                }
                snap.queueDepth = ch.queue.size();
                in.channels.push_back(std::move(snap));
            });
            res.divergence = obs::buildDivergenceReport(in);
        }
    }
    timer_->end(); // verdict

    publishSideStats(registry, "master", res.masterStats,
                     masterKernel_->stats());
    publishSideStats(registry, "slave", res.slaveStats,
                     slaveKernel_->stats());
    registry.counter("driver.steps.master")
        .inc(chan.progress[0].load(std::memory_order_relaxed));
    registry.counter("driver.steps.slave")
        .inc(chan.progress[1].load(std::memory_order_relaxed));
    registry.counter("chan.mutex_acquisitions")
        .inc(chan.totalMutexAcquisitions());
    registry.counter("dual.findings").inc(res.findings.size());
    registry.gauge("dual.wall_seconds").set(res.wallSeconds);

    res.metrics = registry.snapshot();
    res.phases = timer_->samples();
    return res;
}

} // namespace

DualEngine::DualEngine(const ir::Module &module, os::WorldSpec world,
                       EngineConfig cfg)
    : module_(module), world_(std::move(world)), cfg_(std::move(cfg))
{
    if (!instrument::isInstrumented(module_))
        fatal("DualEngine requires a counter-instrumented module");
}

DualResult
DualEngine::run()
{
    DualRun run(module_, world_, cfg_);
    run.drive();
    return run.finish();
}

} // namespace ldx::core
