/**
 * @file
 * Virtual kernel: executes syscalls against a per-execution world
 * copy. Two entry points matter to dual execution:
 *
 *  - execute(): run the syscall for real against this kernel's world
 *    (the master always does this; the slave does when decoupled);
 *  - replay(): impose the master's recorded outcome on this kernel
 *    (the slave's path while coupled). Replay both deposits the
 *    recorded bytes and applies the equivalent state transition to
 *    the slave's world clone so a later decoupling finds a
 *    consistent world ("the file needs to be cloned, opened, and
 *    seeked to the right position", §4.2).
 *
 * Thread/mutex/yield syscalls are scheduling concerns and are handled
 * by the VM, not here.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/scope.h"
#include "os/memaccess.h"
#include "os/sysno.h"
#include "os/vfs.h"
#include "os/world.h"
#include "support/prng.h"

namespace ldx::os {

/** Result of a syscall: return value plus any out-buffer bytes. */
struct Outcome
{
    std::int64_t ret = 0;
    std::string data;        ///< bytes for the out-buffer argument
    std::int64_t stamp = 0;  ///< issuing kernel's clock (for mtimes)
    bool exited = false;     ///< program called exit()
};

/**
 * Deterministic virtual latency of one completed syscall, in ticks:
 * a base cost per coupling class plus the payload bytes moved. Pure
 * function of (syscall number, outcome) — it never advances the
 * kernel clock (the clock feeds Outcome stamps and would perturb
 * verdicts). Used by the guest-level profiler to attribute syscall
 * cost to sites (obs::SiteCounters::sysTicks).
 */
std::int64_t virtualSyscallCost(std::int64_t no, const Outcome &out);

/** One externally visible output (journal entry). */
struct OutputRecord
{
    std::int64_t sysNo = 0;
    std::string channel;  ///< "file:<path>", "net:<host>", "console"
    std::string payload;
    bool suppressed = false; ///< slave-side output (not external)
};

/**
 * Kernel operation tallies, grouped by syscall number (a Read on a
 * socket fd still counts as a VFS op — the grouping is static).
 */
struct KernelStats
{
    std::uint64_t executes = 0;   ///< execute() calls
    std::uint64_t replays = 0;    ///< replay() calls
    std::uint64_t vfsOps = 0;     ///< open/read/write/stat/... family
    std::uint64_t sockOps = 0;    ///< socket/connect/send/recv/...
    std::uint64_t consoleOps = 0; ///< print
    std::uint64_t nondetOps = 0;  ///< time/rdtsc/random/getpid/getenv
};

/** Per-execution virtual kernel. */
class Kernel
{
  public:
    explicit Kernel(const WorldSpec &spec);

    /** Execute @p no with @p args for real. */
    Outcome execute(std::int64_t no, const std::vector<std::int64_t> &args,
                    MemAccess &mem);

    /**
     * Impose @p out (recorded by the peer execution) for @p no.
     * Returns false when the local world cannot follow the transition
     * (divergence) — the caller should taint the resource and fall
     * back to execute().
     */
    bool replay(std::int64_t no, const std::vector<std::int64_t> &args,
                const Outcome &out, MemAccess &mem);

    /**
     * Stable taint key of the resource @p no touches, or empty when
     * the syscall has no taintable resource (clock, pid, ...).
     */
    std::string resourceKey(std::int64_t no,
                            const std::vector<std::int64_t> &args,
                            const MemAccess &mem) const;

    /**
     * Canonical sink payload for output syscalls: channel plus the
     * bytes being emitted. Empty for non-output syscalls.
     */
    std::string sinkPayload(std::int64_t no,
                            const std::vector<std::int64_t> &args,
                            const MemAccess &mem) const;

    /** When true, outputs are journaled as suppressed (slave mode). */
    void setSuppressOutputs(bool v) { suppressOutputs_ = v; }

    /** Attach observability: "output" trace instants on @p lane. */
    void
    setObs(obs::Scope *scope, int lane)
    {
        obs_ = scope;
        obsLane_ = lane;
    }

    /** Operation tallies since construction. */
    const KernelStats &stats() const { return stats_; }

    /** Advance the virtual clock by @p n executed instructions. */
    void tickInstructions(std::uint64_t n) { instrTicks_ += n; }

    bool exited() const { return exited_; }
    std::int64_t exitCode() const { return exitCode_; }

    const std::vector<OutputRecord> &outputs() const { return journal_; }
    const Vfs &vfs() const { return vfs_; }
    Vfs &vfs() { return vfs_; }
    const WorldSpec &spec() const { return spec_; }

    /** Heap segment base jitter for this execution's VM. */
    std::uint64_t heapBaseJitter() const { return spec_.heapBaseJitter; }

  private:
    struct Fd
    {
        enum class Kind
        {
            File, SocketFresh, SocketConn, SocketListen, SocketServerConn
        };
        Kind kind = Kind::File;
        std::string path;        ///< File
        std::int64_t offset = 0; ///< File read/write or request offset
        std::int64_t flags = 0;  ///< Open flags
        std::string host;        ///< SocketConn peer
        std::size_t respIdx = 0; ///< next scripted response
        std::string echoBuf;     ///< last sent payload (echo peers)
        std::string request;     ///< SocketServerConn inbound bytes
        std::size_t incomingIdx = 0; ///< spec_.incoming slot accepted
    };

    std::int64_t now() const;
    std::int64_t arg(const std::vector<std::int64_t> &a, int i) const;
    void accountOp(std::int64_t no);
    void journalOutput(std::int64_t no, const std::string &channel,
                       const std::string &payload);
    std::string channelOfFd(std::int64_t fd) const;

    Outcome doOpen(const std::vector<std::int64_t> &args, MemAccess &mem,
                   std::optional<std::int64_t> forced_fd);
    Outcome doRead(Fd &fd, std::int64_t cap);
    Outcome doWrite(std::int64_t fdno, Fd &fd, const std::string &payload,
                    std::int64_t stamp);
    Outcome doAccept(std::optional<std::int64_t> forced_fd);

    WorldSpec spec_;
    Vfs vfs_;
    std::map<std::int64_t, Fd> fds_;
    std::int64_t nextFd_ = 3;
    std::size_t nextIncoming_ = 0;
    std::vector<OutputRecord> journal_;
    Prng randomPrng_;
    Prng rdtscPrng_;
    std::int64_t clockQueries_ = 0;
    std::uint64_t instrTicks_ = 0;
    bool suppressOutputs_ = false;
    bool exited_ = false;
    std::int64_t exitCode_ = 0;
    KernelStats stats_;
    obs::Scope *obs_ = nullptr;
    int obsLane_ = 0;
};

} // namespace ldx::os
