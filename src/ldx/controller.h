/**
 * @file
 * The per-execution syscall controllers (Algorithm 2 and its slave
 * dual, §4.2), implemented as vm::SyscallPort backends.
 *
 * Master, at a syscall:
 *  - sink: publish the sink and wait for the slave to reach the same
 *    counter level; classify the outcome into Algorithm 2's cases
 *    1-3; then perform the real output.
 *  - input/non-sink output: execute for real and enqueue the outcome
 *    for the slave.
 *
 * Slave, at a syscall:
 *  - sink: publish and wait symmetrically (the slave's external
 *    output is always suppressed);
 *  - input: look for the master's aligned outcome (same counter,
 *    same site, same argument signature) and copy it; if the master
 *    has demonstrably passed this alignment level (its position
 *    counter exceeds ours, or equals it at a different site), the
 *    syscall has no alignment — execute it independently (decoupled)
 *    and count a syscall difference; otherwise wait.
 *
 * Resource tainting (§7): once an operation on a resource misaligns,
 * its key is tainted and later syscalls touching it never couple.
 *
 * Every wait is guarded by a peer-progress watchdog: if the peer
 * retires no instructions across a poll budget (a count of polls, not
 * a time), the waiter decouples instead of hanging (this also bounds
 * the cost of threads that exist in only one execution). The lockstep
 * driver does not spin through a mutual wait's idle rounds: once a
 * round is quiescent it skips straight to the round in which the
 * first budget expires (beginRound .. skipRounds below).
 *
 * Poll fast path: the VM re-issues a blocked request on every
 * scheduling round, so most controller invocations are re-polls whose
 * decision inputs have not changed. Each Blocked return records a
 * *gate* — the identity of the wait plus the versions of everything
 * the locked evaluation depended on (channel stateVersion, taint-map
 * version, lock-order version, the peer's position seqlock). A
 * re-poll whose gate still holds is answered Blocked without touching
 * the channel mutex; when only the peer's position moved, the wait
 * predicate is re-evaluated against the lock-free PosCell snapshot
 * and the mutex is taken only when the wait might actually resolve.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ldx/channel.h"
#include "obs/profiler.h"
#include "vm/hooks.h"

namespace ldx::core {

/** Controller tuning knobs. */
struct ControllerOptions
{
    Side side = Side::Master;

    /** Predicate: is an output on this channel a sink? */
    std::function<bool(const std::string &channel)> isSinkChannel;

    /** Share lock-acquisition order master -> slave (§7). */
    bool shareLockOrder = true;

    /**
     * Polls of a slave lock-follow wait before its mutex is tainted
     * and the wait decouples (counted per wait, not reset by peer
     * progress).
     */
    std::uint64_t lockPollTimeout = 50000;

    /**
     * Consecutive polls of an input, sink or barrier wait with no
     * peer progress before it decouples. SinkBehind waits carry no
     * budget.
     */
    std::uint64_t stallTimeout = 100000;

    /**
     * Guest-level stall attribution (the profiler's coupling-cost
     * view): when non-null, every closed wait folds its episode,
     * poll count, and watchdog expiry into the entry keyed by the
     * instrumentation site that gated it. Single-threaded like the
     * controller itself.
     */
    obs::SiteStallMap *stalls = nullptr;
};

/** One side's syscall controller. */
class Controller : public vm::SyscallPort
{
  public:
    Controller(SyncChannel &chan, ControllerOptions opts);

    vm::PortReply onSyscall(const vm::SyscallRequest &req,
                            vm::Machine &vm, os::Outcome &out) override;
    vm::PortReply onBarrier(int tid, std::int64_t site, std::int64_t iter,
                            std::int64_t cnt, std::int64_t reset_delta,
                            vm::Machine &vm) override;
    void onCounterPush(int tid, std::int64_t saved,
                       vm::Machine &vm) override;
    void onCounterPop(int tid, std::int64_t restored,
                      vm::Machine &vm) override;
    void onThreadDone(int tid, vm::Machine &vm) override;
    void onFinished(vm::Machine &vm) override;

    // Lockstep idle fast-forward (docs/PERFORMANCE.md). A round is
    // quiescent when every poll since beginRound() was answered
    // Blocked from a gate that still holds; until a budget runs out,
    // each further idle round then only counts one more poll per
    // polled wait.

    /** Start a lockstep round: forget the last round's polls. */
    void beginRound();

    /** Was every poll since beginRound() a fast-path Blocked? */
    bool
    roundQuiescent() const
    {
        return roundCalls_ == roundPolls_.size();
    }

    /**
     * Idle rounds that can pass after a quiescent round before one
     * of its polled waits runs out of budget: the minimum of
     * stallTimeout − polls over the watchdog-guarded waits and
     * lockPollTimeout − lockPolls over the lock-follow waits. The
     * round after that many is the one that expires. UINT64_MAX when
     * no polled wait carries a budget (every gate is SinkBehind).
     */
    std::uint64_t roundsToExpiry() const;

    /**
     * Count @p n more idle rounds of the last quiescent round's
     * polls — wait and lock poll budgets, watchdog.polls and
     * chan.blocked_polls — exactly as polling them would; requires
     * n <= roundsToExpiry().
     */
    void skipRounds(std::uint64_t n);

  private:
    int self() const { return static_cast<int>(opts_.side); }
    int peer() const { return static_cast<int>(peerOf(opts_.side)); }

    /** Which handler a fast-poll gate belongs to. */
    enum class PollSite
    {
        Syscall, ///< shared input / sink waits
        Barrier,
        Lock,
    };

    /** Per-tid ThreadChannel lookup without SyncChannel's map mutex. */
    ThreadChannel &channel(int tid);

    /** Argument signature used to match syscalls across executions. */
    std::uint64_t argSignature(const vm::SyscallRequest &req,
                               vm::Machine &vm) const;

    /** Is this output-class request a sink under the configuration? */
    bool isSink(const vm::SyscallRequest &req, vm::Machine &vm,
                std::string *payload_out, std::string *channel_out) const;

    /** Watchdog bookkeeping; true when the wait should give up. */
    bool waitExpired(int tid, std::uint64_t budget);
    void clearWait(int tid);

    /**
     * True when the re-poll identified by (site of call, tid, cnt,
     * site, iter) provably still blocks, judged entirely from
     * lock-free state. On true the caller returns Blocked without
     * acquiring the channel mutex; on false it runs the full locked
     * evaluation (which re-records or clears the gate).
     */
    bool fastPollBlocked(PollSite where, int tid, std::int64_t cnt,
                         int site, std::int64_t iter);

    /** Drop any recorded gate for @p tid (slow path is running). */
    void invalidateGate(int tid);

    vm::PortReply handleSink(const vm::SyscallRequest &req,
                             vm::Machine &vm, os::Outcome &out,
                             const std::string &payload);
    vm::PortReply handleMasterShared(const vm::SyscallRequest &req,
                                     vm::Machine &vm, os::Outcome &out);
    vm::PortReply handleSlaveShared(const vm::SyscallRequest &req,
                                    vm::Machine &vm, os::Outcome &out);
    vm::PortReply handleLock(const vm::SyscallRequest &req,
                             vm::Machine &vm);

    void bumpProgress();

    /** Record a Fig. 3-style trace event when tracing is on. */
    void trace(TraceEvent::Kind kind, const vm::SyscallRequest &req);

    /** Append one event to this side's flight-recorder ring. */
    void recordEvt(obs::RecKind kind, int tid, std::int64_t cnt,
                   int site, std::int64_t sysNo, std::uint64_t arg = 0);

    SyncChannel &chan_;
    ControllerOptions opts_;
    obs::FlightRecorder *rec_;

    /** Per-thread watchdog + poll-gate state. */
    struct WaitState
    {
        std::uint64_t polls = 0;
        std::uint64_t peerProgressSnapshot = 0;
        /**
         * Sticky watchdog verdict: once a wait expires it stays
         * expired until the wait resolves (clearWait). The locked
         * path consults this first, so a fast-path expiry followed by
         * the locked re-evaluation cannot silently re-arm the budget.
         */
        bool expired = false;

        /** What kind of wait the recorded gate protects. */
        enum class Gate : std::uint8_t
        {
            None,
            Input,      ///< slave shared-input wait
            SinkWait,   ///< sink wait, peer sink absent/resolved
            SinkBehind, ///< sink wait, peer's sink is behind/unknown
            Barrier,
            Lock,
        };
        Gate gate = Gate::None;
        /** One Block event is recorded per wait (not per re-poll). */
        bool blockRecorded = false;
        std::int64_t gateSysNo = -1; ///< syscall waited at (-1 barrier)
        std::int64_t gateCnt = 0;
        int gateSite = -1;
        std::int64_t gateIter = 0;
        std::int64_t gateTheirsCnt = 0; ///< SinkBehind: peer sink cnt
        std::int64_t gateLockId = 0;    ///< Lock: mutex id
        std::uint64_t gateState = 0;    ///< ThreadChannel::stateVersion
        std::uint64_t gateTaint = 0;    ///< taint-map version
        std::uint64_t gateLockVer = 0;  ///< SyncChannel::lockVersion
        std::uint64_t gatePeerSeq = 0;  ///< peer PosCell sequence
        /** My counter stack at gate time (stable while blocked). */
        std::vector<std::int64_t> gateMyStack;
    };
    std::map<int, WaitState> waits_;

    /** Record @p w's Block event (first block of the wait only). */
    void recordBlock(WaitState &w, int tid, std::int64_t sysNo);

    /** Slave lock-follow poll budgets (was shared channel state). */
    std::map<std::pair<int, std::int64_t>, std::uint64_t> lockPolls_;

    /** Stable ThreadChannel pointers (channels are never removed). */
    std::map<int, ThreadChannel *> channelCache_;

    /**
     * Port polls since beginRound(), and the tids answered fast
     * (recorded only once a driver has started rounds, so the
     * threaded driver never accumulates them).
     */
    bool roundsOn_ = false;
    std::size_t roundCalls_ = 0;
    std::vector<int> roundPolls_;

    // Fast-poll scratch (avoids per-poll allocation).
    Position peerPosScratch_;
    std::vector<std::int64_t> peerStackScratch_;
};

} // namespace ldx::core
