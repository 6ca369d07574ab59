#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "fuzz/generator.h"
#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "query/campaign.h"
#include "serve/protocol.h"
#include "support/diag.h"
#include "workloads/corpus/corpus.h"
#include "workloads/workloads.h"

namespace ldx::serve {

namespace {

/** One resolved job: the program + world a submit frame names. */
struct ResolvedJob
{
    const ir::Module *module = nullptr;
    std::unique_ptr<ir::Module> owned; ///< backs module when compiled
    std::shared_ptr<vm::PredecodedModule> predecoded;
    os::WorldSpec world;
    core::SinkConfig sinks;
};

/**
 * Resolve a submit frame exactly the way `ldx campaign <arg>` does:
 * a built-in workload (its sinks apply), a promoted corpus entry
 * (world re-derived from the generator seed), or inline source with
 * an env/files world — so a served graph byte-matches the offline
 * artifact. Throws FatalError on a bad program.
 */
ResolvedJob
resolveJob(const SubmitRequest &req)
{
    ResolvedJob job;
    if (!req.workload.empty()) {
        if (const workloads::Workload *w =
                workloads::findWorkload(req.workload)) {
            job.sinks = w->sinks;
            job.module = &workloads::workloadModule(*w, true);
            job.world = w->world(w->defaultScale);
            return job;
        }
        for (const workloads::CorpusEntry &e :
             workloads::corpusEntries()) {
            if (e.name != req.workload)
                continue;
            job.owned = lang::compileSource(e.source);
            instrument::CounterInstrumenter pass(*job.owned);
            pass.run();
            job.module = job.owned.get();
            job.world = fuzz::ProgramGenerator::worldFor(e.seed);
            return job;
        }
        fatal("unknown workload or corpus entry: " + req.workload);
    }
    job.owned = lang::compileSource(req.source);
    instrument::CounterInstrumenter pass(*job.owned);
    pass.run();
    job.module = job.owned.get();
    for (const auto &[k, v] : req.env)
        job.world.env[k] = v;
    for (const auto &[k, v] : req.files)
        job.world.files[k] = v;
    return job;
}

core::MutationStrategy
policyByName(const std::string &name)
{
    if (name == "zero")
        return core::MutationStrategy::Zero;
    if (name == "bit-flip")
        return core::MutationStrategy::BitFlip;
    if (name == "random")
        return core::MutationStrategy::Random;
    return core::MutationStrategy::OffByOne;
}

} // namespace

/** One client connection (its socket plus write serialization). */
struct Server::Connection
{
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex writeMutex;
    std::atomic<bool> alive{true};
    std::string readBuf;
};

Server::Server(const ServeConfig &cfg)
    : cfg_(cfg),
      pool_([&] {
          query::SharedPool::Config pc;
          pc.jobs = cfg.jobs;
          pc.registry = cfg.registry;
          return pc;
      }()),
      cache_(cfg.cacheCap, cfg.shards, cfg.cacheDir, cfg.registry)
{}

Server::~Server()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
    }
}

std::uint64_t
Server::jobsAccepted() const
{
    return jobsAccepted_.load(std::memory_order_relaxed);
}

std::uint64_t
Server::jobsRejected() const
{
    return jobsRejected_.load(std::memory_order_relaxed);
}

bool
Server::start(std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why + ": " + std::strerror(errno);
        return false;
    };
    if (cfg_.socketPath.empty()) {
        if (error)
            *error = "serve requires --socket PATH";
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.size() >= sizeof addr.sun_path) {
        if (error)
            *error = "--socket path too long (max " +
                     std::to_string(sizeof addr.sun_path - 1) +
                     " bytes): " + cfg_.socketPath;
        return false;
    }
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("cannot create socket");
    // A stale socket file from a crashed daemon would make bind fail;
    // a *live* daemon still answers on it, so probe before unlinking.
    ::unlink(cfg_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        return fail("cannot bind " + cfg_.socketPath);
    if (::listen(listenFd_, 64) != 0)
        return fail("cannot listen on " + cfg_.socketPath);
    return true;
}

bool
Server::writeLine(Connection &conn, const std::string &frame)
{
    if (!conn.alive.load(std::memory_order_relaxed))
        return false;
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    std::string line = frame;
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
        ssize_t n = ::send(conn.fd, line.data() + off,
                           line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // Peer gone (EPIPE/ECONNRESET): mark dead; the job keeps
            // running to completion so the shared cache still warms.
            conn.alive.store(false, std::memory_order_relaxed);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
Server::handleSubmit(Connection &conn, const SubmitRequest &req)
{
    obs::Registry *sreg = cfg_.registry;
    auto reject = [&](const std::string &reason) {
        jobsRejected_.fetch_add(1, std::memory_order_relaxed);
        if (sreg)
            sreg->counter("serve.jobs_rejected").inc();
        writeLine(conn, renderRejected(req.id, reason));
    };

    // Tenant-slot admission first: it needs no work at all.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (activeJobs_ >= cfg_.maxTenants) {
            reject("server at tenant capacity (" +
                   std::to_string(activeJobs_) + " active jobs, cap " +
                   std::to_string(cfg_.maxTenants) + ")");
            return;
        }
        ++activeJobs_;
        if (sreg)
            sreg->gauge("serve.jobs_active")
                .set(static_cast<double>(activeJobs_));
    }
    auto releaseSlot = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        --activeJobs_;
        if (sreg)
            sreg->gauge("serve.jobs_active")
                .set(static_cast<double>(activeJobs_));
    };

    query::CampaignConfig cc;
    cc.vmConfig.dispatch = cfg_.dispatch;
    if (!req.policies.empty()) {
        cc.policies.clear();
        for (const std::string &p : req.policies)
            cc.policies.push_back(policyByName(p));
    }
    if (req.offset)
        cc.offset = static_cast<std::size_t>(*req.offset);
    cc.threaded = req.threaded;
    if (req.deadlineMs)
        cc.deadlineSeconds = static_cast<double>(*req.deadlineMs) / 1e3;
    cc.queueCap = cfg_.queueCap;
    cc.cancel = &drain_;
    cc.sharedCache = &cache_;
    cc.sharedPool = &pool_;

    // Resolve and pre-enumerate on this thread: the size admission
    // check and the accepted frame's query count both need the plan
    // before any dual execution starts. The baseline run is one
    // native execution — cheap next to the campaign it gates — and
    // the predecoded streams are shared into the campaign proper.
    ResolvedJob job;
    std::size_t planned = 0;
    try {
        job = resolveJob(req);
        cc.sinks = job.sinks;
        if (cc.vmConfig.predecode && !cc.vmConfig.predecoded) {
            auto shared =
                std::make_shared<vm::PredecodedModule>(*job.module);
            shared->decodeAll();
            cc.vmConfig.predecoded = std::move(shared);
        }
        query::EnumerateOptions eopts;
        eopts.sinks = cc.sinks;
        eopts.eventCap = cc.eventCap;
        eopts.vmConfig = cc.vmConfig;
        query::BaselineEnumeration baseline =
            query::enumerateBaseline(*job.module, job.world, eopts);
        planned =
            baseline.queryableSources().size() * cc.policies.size();
    } catch (const std::exception &e) {
        reject(e.what());
        releaseSlot();
        return;
    }
    if (cfg_.maxJobQueries && planned > cfg_.maxJobQueries) {
        reject("job too large: " + std::to_string(planned) +
               " planned queries > cap " +
               std::to_string(cfg_.maxJobQueries));
        releaseSlot();
        return;
    }

    jobsAccepted_.fetch_add(1, std::memory_order_relaxed);
    if (sreg) {
        sreg->counter("serve.jobs_accepted").inc();
        sreg->counter("serve.tenant." + std::to_string(conn.id) +
                      ".jobs_accepted")
            .inc();
    }
    writeLine(conn, renderAccepted(req.id, planned));

    // Verdict stream: workers complete out of order, the wire stays
    // in query-index order — frames are parked until every lower
    // index has been sent, so a job's whole response stream is
    // byte-deterministic.
    struct Stream
    {
        std::mutex m;
        std::vector<std::string> frames; ///< "" = not yet produced
        std::size_t next = 0;
        std::size_t delivered = 0;
    } stream;
    stream.frames.assign(planned, std::string());
    obs::Gauge *tenant_inflight =
        sreg ? &sreg->gauge("serve.tenant." + std::to_string(conn.id) +
                            ".queries_inflight")
             : nullptr;
    if (tenant_inflight)
        tenant_inflight->set(static_cast<double>(planned));
    auto flushReady = [&] {
        // stream.m held.
        while (stream.next < stream.frames.size() &&
               !stream.frames[stream.next].empty()) {
            writeLine(conn, stream.frames[stream.next]);
            ++stream.next;
            ++stream.delivered;
        }
        if (tenant_inflight)
            tenant_inflight->set(static_cast<double>(
                stream.frames.size() - stream.delivered));
    };
    cc.onVerdict = [&](const query::CampaignQuery &q,
                       const query::QueryVerdict &v, bool cached) {
        std::string frame = renderVerdict(req.id, q, v, cached);
        std::lock_guard<std::mutex> lock(stream.m);
        if (q.index < stream.frames.size())
            stream.frames[q.index] = std::move(frame);
        flushReady();
    };

    obs::Registry job_registry;
    cc.registry = &job_registry;

    query::CampaignResult res;
    try {
        res = query::runCampaign(*job.module, job.world, cc);
    } catch (const std::exception &e) {
        writeLine(conn, renderError(std::string("campaign failed: ") +
                                    e.what()));
        DoneStats stats;
        stats.exit = 3;
        writeLine(conn, renderDone(req.id, stats));
        releaseSlot();
        return;
    }

    // Flush the tail: everything already rendered goes out in index
    // order; slots that never produced a verdict (drain-cancelled or
    // failed queries) get a terminal `skipped` frame instead.
    {
        std::lock_guard<std::mutex> lock(stream.m);
        for (std::size_t i = stream.next; i < stream.frames.size();
             ++i) {
            if (!stream.frames[i].empty()) {
                writeLine(conn, stream.frames[i]);
            } else {
                const char *status =
                    i < res.outcomes.size()
                        ? query::runStatusName(res.outcomes[i].status)
                        : "cancelled";
                writeLine(conn, renderSkipped(req.id, i, status));
            }
            ++stream.delivered;
        }
        stream.next = stream.frames.size();
        if (tenant_inflight)
            tenant_inflight->set(0.0);
    }

    std::string graph_json = res.graph.toJson();
    writeLine(conn, renderGraph(req.id, graph_json));

    DoneStats stats;
    stats.exit = res.failedQueries ? 3 : (res.anyCausality() ? 1 : 0);
    stats.queries = res.queries.size();
    stats.cached = res.cacheHits;
    stats.executed = res.dualExecutions;
    stats.cancelled = res.cancelledQueries;
    stats.failed = res.failedQueries;
    stats.timedOut = res.timedOutQueries;
    stats.edges = res.graph.edges.size();
    writeLine(conn, renderDone(req.id, stats));

    if (sreg) {
        sreg->counter("serve.jobs_completed").inc();
        sreg->counter("serve.dual_executions").inc(res.dualExecutions);
        sreg->counter("serve.queries_total").inc(res.queries.size());
    }
    releaseSlot();
}

void
Server::handleFrame(Connection &conn, const std::string &line)
{
    if (line.empty())
        return;
    std::string err;
    std::optional<JsonValue> frame = parseJson(line, &err);
    if (!frame || !frame->isObject()) {
        writeLine(conn, renderError("malformed frame: " +
                                    (err.empty() ? "not an object"
                                                 : err)));
        return;
    }
    std::string type = frame->stringOr("type", "");
    if (type == "hello") {
        std::string proto = frame->stringOr("proto", kProtocol);
        if (proto != kProtocol)
            writeLine(conn, renderError("unsupported protocol " +
                                        proto + " (server speaks " +
                                        kProtocol + ")"));
        return;
    }
    if (type == "submit") {
        std::optional<SubmitRequest> req = parseSubmit(*frame, &err);
        if (!req) {
            writeLine(conn, renderError(err));
            return;
        }
        handleSubmit(conn, *req);
        return;
    }
    writeLine(conn, renderError("unknown frame type \"" + type + "\""));
}

void
Server::connectionLoop(std::shared_ptr<Connection> conn)
{
    if (cfg_.registry)
        cfg_.registry->counter("serve.connections").inc();
    writeLine(*conn, renderHello(cfg_.version));

    // Read NDJSON frames. The poll timeout doubles as the drain
    // check: a draining server interrupts idle reads within ~200ms.
    while (!drain_.load(std::memory_order_relaxed) &&
           conn->alive.load(std::memory_order_relaxed)) {
        std::size_t nl = conn->readBuf.find('\n');
        if (nl != std::string::npos) {
            std::string line = conn->readBuf.substr(0, nl);
            conn->readBuf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            handleFrame(*conn, line);
            continue;
        }
        pollfd pfd{conn->fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        char buf[4096];
        ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n <= 0)
            break; // EOF or error: client left
        conn->readBuf.append(buf, static_cast<std::size_t>(n));
    }

    // Drain handshake: every still-connected client gets a terminal
    // frame before its socket closes.
    if (drain_.load(std::memory_order_relaxed))
        writeLine(*conn, renderDrained());
    ::close(conn->fd);
    conn->fd = -1;
    conn->alive.store(false, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(mutex_);
    --openConns_;
    if (cfg_.registry)
        cfg_.registry->gauge("serve.connections_open")
            .set(static_cast<double>(openConns_));
    idleCv_.notify_all();
}

int
Server::serve()
{
    checkInvariant(cfg_.shutdown != nullptr,
                   "serve requires a shutdown latch");
    while (!cfg_.shutdown->load(std::memory_order_relaxed)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 200);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            conn->id = connSeq_++;
            conns_.push_back(conn);
            ++openConns_;
            if (cfg_.registry)
                cfg_.registry->gauge("serve.connections_open")
                    .set(static_cast<double>(openConns_));
            threads_.emplace_back(&Server::connectionLoop, this, conn);
        }
    }

    // Drain: flip the shared cancel latch (campaigns stop submitting
    // new queries; in-flight ones complete), give tenants up to the
    // drain timeout to finish, then force any stragglers' sockets
    // shut (their queries still run to completion — verdicts are
    // never torn, the client is just gone).
    drain_.store(true, std::memory_order_relaxed);
    if (cfg_.registry)
        cfg_.registry->gauge("serve.draining").set(1.0);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idleCv_.wait_for(
            lock, std::chrono::milliseconds(cfg_.drainTimeoutMs),
            [&] { return openConns_ == 0; });
        for (const std::shared_ptr<Connection> &c : conns_)
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RD);
    }
    for (std::thread &t : threads_)
        t.join();
    ::close(listenFd_);
    ::unlink(cfg_.socketPath.c_str());
    listenFd_ = -1;
    if (cfg_.registry)
        cfg_.registry->gauge("serve.draining").set(2.0);
    return 0;
}

} // namespace ldx::serve
