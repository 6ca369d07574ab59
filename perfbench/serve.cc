/**
 * @file
 * The `serve` workload: an `ldx serve` daemon fed over its Unix socket
 * from this process, a closed-loop phase for capacity and an
 * open-loop phase at a fixed rate for latency (README.md "serve").
 */
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <set>
#include <thread>

#include "bench.h"
#include "query/campaign.h"
#include "serve/protocol.h"
#include "serve/wire.h"

extern char **environ;

namespace ldx::perfbench {

namespace {

constexpr double kClosedSeconds = 2.5;
constexpr double kOpenSeconds = 2.5;
constexpr double kWarmSeconds = 2.0;
constexpr double kOpenRate = 100.0;   ///< open-loop arrivals per second
constexpr std::size_t kWindow = 2;    ///< closed-loop jobs in flight per connection
constexpr int kOverlapPairs = 8;      ///< overlapping identical jobs per round
constexpr std::uint64_t kOffsets = 1 << 16; ///< first-time offsets per range
constexpr std::uint64_t kWarmOffset = 1 << 20; ///< warm-up jobs only

/** The programs a causality service is asked about. */
std::vector<std::string>
servePrograms()
{
    std::vector<std::string> names = corpusNames();
    for (const workloads::Workload *w :
         workloads::workloadsIn(workloads::Category::Vulnerable))
        names.push_back(w->name);
    for (const char *n : {"firefox", "lynx", "nginx", "tnftp", "sysstat"})
        names.push_back(n);
    return names;
}

/** One `ldx-serve-v1` client connection. */
class Conn
{
  public:
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool
    send(const std::string &frame)
    {
        std::string line = frame + "\n";
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Next frame; nullopt on EOF or a malformed line. */
    std::optional<serve::JsonValue>
    next()
    {
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return serve::parseJson(line);
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return std::nullopt;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

/** Connect to @p path, or -1. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** The `ldx serve` child process; stopped on destruction. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    void
    spawn(const Args &args, const std::string &socket, int workers,
          int tenants)
    {
        std::vector<std::string> argv = {
            args.ldxPath,   "serve",          "--socket",
            socket,         "--jobs",         std::to_string(workers),
            "--max-tenants", std::to_string(tenants), "--cache-cap",
            "65536",        "--drain-timeout-ms", "5000"};
        std::vector<char *> cargv;
        for (std::string &a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
        std::string log = args.workDir + "/serve-daemon.log";
        posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        int rc = posix_spawn(&pid_, args.ldxPath.c_str(), &fa, nullptr,
                             cargv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + args.ldxPath);
        }
    }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGINT);
        for (int i = 0; i < 1000; ++i) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/**
 * Start `ldx serve` and open @p conns connections; returns the
 * seconds from spawning the daemon to its first hello frame.
 */
double
startDaemon(const Args &args, const std::string &socket, int workers,
            int conns, Daemon &daemon,
            std::vector<std::unique_ptr<Conn>> &cs)
{
    double t0 = nowSeconds();
    daemon.spawn(args, socket, workers, conns);
    for (;;) {
        int fd = connectTo(socket);
        if (fd >= 0) {
            cs.push_back(std::make_unique<Conn>(fd));
            break;
        }
        if (nowSeconds() - t0 > 10)
            throw std::runtime_error("ldx serve did not start");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::optional<serve::JsonValue> hello = cs[0]->next();
    if (!hello || hello->stringOr("type", "") != "hello")
        throw std::runtime_error("ldx serve sent no hello");
    double seconds = nowSeconds() - t0;
    for (int c = 1; c < conns; ++c) {
        cs.push_back(std::make_unique<Conn>(connectTo(socket)));
        if (!cs.back()->next())
            throw std::runtime_error("no hello on connection");
    }
    for (auto &c : cs)
        c->send(serve::renderHello(std::string()));
    return seconds;
}

/** A job: one program at one mutation offset. */
struct Job
{
    std::size_t program = 0;
    std::uint64_t offset = 0;

    bool
    operator<(const Job &o) const
    {
        return program != o.program ? program < o.program
                                    : offset < o.offset;
    }
};

/** Everything observed about one submitted job (steady seconds). */
struct JobRecord
{
    Job job;
    bool open = false;  ///< open-loop phase
    bool fresh = false; ///< first submission of this job in the run
    double due = 0, send = 0, accepted = 0, firstVerdict = 0, done = 0;
    std::uint64_t planned = 0, queries = 0, executed = 0, cached = 0;
    bool ok = false;
    std::string graph;
};

/**
 * Seeded, stratified traffic. Programs come in seeded permutations of
 * the whole set, so each is asked about equally often. Every second
 * job repeats an earlier job of its program (cache reads); the others
 * are first-time jobs at a seeded offset not used yet this round
 * (cache writes plus dual runs).
 */
class Traffic
{
  public:
    /**
     * First-time jobs use offsets in [base, base + kOffsets); with
     * @p repeats false every job is a first-time job.
     */
    Traffic(std::uint64_t seed, std::size_t programs, std::uint64_t base,
            bool repeats = true)
        : rng_(seed), programs_(programs), base_(base), repeats_(repeats),
          history_(programs), used_(programs)
    {}

    /** The next job and whether it is a first-time job. */
    std::pair<Job, bool>
    draw()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (order_.empty())
            order_ = rng_.order(programs_);
        std::size_t p = order_.back();
        order_.pop_back();
        std::vector<Job> &earlier = history_[p];
        bool repeat = repeats_ && count_++ % 2 == 1;
        for (int tries = 0; !repeat && tries < 1000; ++tries) {
            Job j{p, base_ + rng_.below(kOffsets)};
            if (used_[p].insert(j.offset).second) {
                earlier.push_back(j);
                return {j, true};
            }
        }
        if (earlier.empty()) {
            Job j{p, base_ + rng_.below(kOffsets)};
            used_[p].insert(j.offset);
            earlier.push_back(j);
            return {j, true};
        }
        return {earlier[rng_.below(earlier.size())], false};
    }

  private:
    std::mutex mutex_;
    Rng rng_;
    std::size_t programs_;
    std::uint64_t base_;
    bool repeats_;
    std::vector<std::size_t> order_;
    std::uint64_t count_ = 0;
    std::vector<std::vector<Job>> history_;
    std::vector<std::set<std::uint64_t>> used_;
};

/** Send @p rec's submit frame on @p conn; false if the socket failed. */
bool
submitJob(Conn &conn, const std::vector<Program> &programs,
          std::uint64_t seq, JobRecord &rec)
{
    serve::SubmitRequest req;
    req.id = "j" + std::to_string(seq);
    req.workload = programs[rec.job.program].name;
    req.offset = rec.job.offset;
    rec.send = nowSeconds();
    return conn.send(serve::renderSubmit(req));
}

/**
 * Read @p rec's frames to `done`. The daemon serves a connection's
 * submits one after another, so the frames of a job arrive after
 * those of every job submitted before it on the same connection.
 */
void
readJob(Conn &conn, JobRecord &rec)
{
    while (std::optional<serve::JsonValue> f = conn.next()) {
        std::string type = f->stringOr("type", "");
        if (type == "accepted") {
            rec.accepted = nowSeconds();
            rec.planned = f->uintOr("queries", 0);
        } else if (type == "verdict") {
            if (rec.firstVerdict == 0)
                rec.firstVerdict = nowSeconds();
        } else if (type == "graph") {
            rec.graph = f->stringOr("json", "");
        } else if (type == "done") {
            rec.done = nowSeconds();
            rec.queries = f->uintOr("queries", 0);
            rec.executed = f->uintOr("executed", 0);
            rec.cached = f->uintOr("cached", 0);
            std::uint64_t exit = f->uintOr("exit", 9);
            rec.ok = rec.accepted > 0 && (exit == 0 || exit == 1) &&
                     f->uintOr("failed", 1) == 0 &&
                     f->uintOr("timed_out", 1) == 0;
            return;
        } else if (type == "rejected" || type == "error" ||
                   type == "drained") {
            return;
        }
    }
}

/** Submit @p rec's job on @p conn and read its frames to `done`. */
void
runJob(Conn &conn, const std::vector<Program> &programs,
       std::uint64_t seq, JobRecord &rec)
{
    if (submitJob(conn, programs, seq, rec))
        readJob(conn, rec);
}

/** Spans of one finished job (traced rounds). */
void
traceJob(Tracer &tracer, const JobRecord &r, std::uint64_t request)
{
    auto us = [](double s) {
        return static_cast<std::int64_t>(std::llround(s * 1e6));
    };
    Span root{"serve.job", us(r.open ? r.due : r.send), us(r.done),
              tracer.nextId(), 0, request};
    std::uint64_t root_id = root.id;
    tracer.add(root);
    tracer.add({"serve.admission", us(r.send), us(r.accepted),
                tracer.nextId(), root_id, request});
    if (r.firstVerdict > 0) {
        tracer.add({"serve.first_verdict", us(r.accepted),
                    us(r.firstVerdict), tracer.nextId(), root_id, request});
        tracer.add({"serve.stream", us(r.firstVerdict), us(r.done),
                    tracer.nextId(), root_id, request});
    }
}

/** One round's observations. */
struct RoundData
{
    double closedSeconds = 0;
    std::vector<JobRecord> closed;
    std::vector<JobRecord> open;
    std::vector<JobRecord> overlap; ///< untimed pairs of identical jobs
    std::vector<RowTimes> rows;
    double generatorLagMax = 0;
};

} // namespace

RunResult
runServe(const Args &args)
{
    RunResult res;
    if (args.ldxPath.empty())
        throw std::runtime_error("serve needs --ldx PATH");
    Tracer tracer;
    Tally tally;

    const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    // One pool worker and up to three connections, so the worker has
    // queued queries from several tenants; workers plus connections
    // stay within nproc and within --max-tenants.
    const int workers = static_cast<int>(std::max(1L, nproc / 4));
    const int conns = static_cast<int>(std::clamp(nproc - workers, 1L, 3L));
    const std::string socket =
        args.workDir + "/serve-" + std::to_string(::getpid()) + ".sock";

    // In-process copies of the served programs: the Fig. 6 reference
    // rows and the offline oracle for every streamed graph.
    std::vector<Program> programs;
    for (const std::string &n : servePrograms()) {
        const workloads::Workload *w = workloads::findWorkload(n);
        programs.push_back(describeProgram(n, w ? w->defaultScale : 1));
    }
    for (Program &p : programs)
        prepareProgram(p, args.trace ? &tracer : nullptr, 0);
    std::vector<RowPlan> rows = referenceRows(programs);

    std::map<Job, std::string> graphs; ///< first streamed graph per job
    std::mutex record_mutex;
    std::uint64_t seq = 0;
    auto nextSeq = [&] {
        std::lock_guard<std::mutex> lock(record_mutex);
        return ++seq;
    };
    // Count and check one finished job (called from client threads).
    auto record = [&](JobRecord &r, std::vector<JobRecord> &into) {
        std::lock_guard<std::mutex> lock(record_mutex);
        ++res.ops.attempted;
        std::string job = programs[r.job.program].name + "@" +
                          std::to_string(r.job.offset);
        if (!r.ok) {
            ++res.ops.failed;
            res.ops.errors.push_back(job + ": job did not complete");
        } else {
            auto [it, fresh] = graphs.emplace(r.job, r.graph);
            if (!fresh && it->second != r.graph)
                res.ops.errors.push_back(
                    job + ": streamed graph changed between submissions");
        }
        r.graph.clear();
        into.push_back(std::move(r));
    };

    // Set-up: start the daemon and wait for its hello, several times;
    // the last daemon serves the whole run.
    std::vector<double> setup;
    Daemon daemon;
    std::vector<std::unique_ptr<Conn>> cs;
    for (int i = 0; i < 7; ++i) {
        cs.clear();
        daemon.stop();
        setup.push_back(
            startDaemon(args, socket, workers, conns, daemon, cs));
    }

    // Untimed warm-up: every program twice, at offsets the measured
    // traffic never uses.
    for (std::uint64_t off : {kWarmOffset, kWarmOffset + 1})
        for (std::size_t pi = 0; pi < programs.size(); ++pi) {
            JobRecord w;
            w.job = {pi, off};
            runJob(*cs[0], programs, nextSeq(), w);
        }

    // Closed- and open-loop traffic draw first-time offsets from
    // disjoint ranges, so the open loop's jobs depend on the seed
    // alone, not on how many jobs the closed loop managed.
    Rng rng(args.seed);
    Traffic traffic(rng.next(), programs.size(), 0);
    Traffic open_traffic(rng.next(), programs.size(), kOffsets);
    Traffic overlap_traffic(rng.next(), programs.size(), 2 * kOffsets, false);

    // Run a closed loop for @p seconds: each connection keeps kWindow
    // jobs submitted and sends the next one when one is done, so the
    // daemon never waits for the client. Returns the time until its
    // last job was done. Records jobs into @p into (null: untimed).
    auto closedLoop = [&](double seconds, std::vector<JobRecord> *into) {
        double c0 = nowSeconds();
        double end = c0 + seconds;
        std::vector<double> last(conns, c0);
        std::vector<std::thread> ts;
        for (int c = 0; c < conns; ++c)
            ts.emplace_back([&, c] {
                std::deque<JobRecord> inflight;
                auto submitNext = [&] {
                    JobRecord r;
                    auto [job, fresh] = traffic.draw();
                    r.job = job;
                    r.fresh = fresh;
                    submitJob(*cs[c], programs, nextSeq(), r);
                    r.due = r.send;
                    inflight.push_back(std::move(r));
                };
                while (inflight.size() < kWindow)
                    submitNext();
                while (!inflight.empty()) {
                    JobRecord r = std::move(inflight.front());
                    inflight.pop_front();
                    readJob(*cs[c], r);
                    if (nowSeconds() < end)
                        submitNext();
                    last[c] = r.done;
                    if (into)
                        record(r, *into);
                }
            });
        for (std::thread &t : ts)
            t.join();
        return *std::max_element(last.begin(), last.end()) - c0;
    };

    // Untimed warm-up traffic: the daemon's caches and the traffic's
    // history of earlier jobs fill before anything is timed.
    closedLoop(kWarmSeconds, nullptr);
    std::vector<RoundData> rounds;
    std::vector<double> trace_ratio;
    int traced_rounds = 0;
    double deadline = nowSeconds() + args.seconds;
    int round = 0;
    do {
        std::uint64_t round_seed = rng.next();
        int passes = args.trace ? 2 : 1;
        double jobs_ps[2] = {0, 0};
        for (int pass = 0; pass < passes; ++pass) {
            bool traced = args.trace && (pass + round) % 2 == 0;
            RoundData rd;

            // Closed loop: each connection submits its next job as
            // soon as the previous one is done.
            rd.closedSeconds = closedLoop(kClosedSeconds, &rd.closed);

            // Reference rows while the daemon is idle.
            {
                Rng row_rng(round_seed);
                int rotate = static_cast<int>(row_rng.below(3));
                rd.rows.resize(rows.size());
                for (std::size_t i : row_rng.order(rows.size()))
                    rd.rows[i] = runRow(rows[i], rotate,
                                        traced ? &tracer : nullptr,
                                        traced ? &tally : nullptr, res.ops);
            }

            // Open loop: arrivals evenly spaced at a fixed rate; each
            // job is timed from its due time, whatever connection
            // takes it.
            {
                std::deque<JobRecord> queue;
                std::mutex qm;
                std::condition_variable qcv;
                bool closed = false;
                double o0 = nowSeconds() + 0.001;
                std::vector<std::thread> ts;
                for (int c = 0; c < conns; ++c)
                    ts.emplace_back([&, c] {
                        for (;;) {
                            JobRecord r;
                            {
                                std::unique_lock<std::mutex> lock(qm);
                                qcv.wait(lock, [&] {
                                    return closed || !queue.empty();
                                });
                                if (queue.empty())
                                    return;
                                r = std::move(queue.front());
                                queue.pop_front();
                            }
                            runJob(*cs[c], programs, nextSeq(), r);
                            record(r, rd.open);
                        }
                    });
                for (std::uint64_t n = 0;; ++n) {
                    double due = o0 + static_cast<double>(n) / kOpenRate;
                    if (due > o0 + kOpenSeconds)
                        break;
                    JobRecord r;
                    r.open = true;
                    auto [job, fresh] = open_traffic.draw();
                    r.job = job;
                    r.fresh = fresh;
                    r.due = due;
                    double wait = due - nowSeconds();
                    if (wait > 0)
                        std::this_thread::sleep_for(
                            std::chrono::duration<double>(wait));
                    rd.generatorLagMax =
                        std::max(rd.generatorLagMax, nowSeconds() - due);
                    {
                        std::lock_guard<std::mutex> lock(qm);
                        queue.push_back(std::move(r));
                    }
                    qcv.notify_one();
                }
                {
                    std::lock_guard<std::mutex> lock(qm);
                    closed = true;
                }
                qcv.notify_all();
                for (std::thread &t : ts)
                    t.join();
            }

            // Overlap, untimed: first-time jobs sent on two
            // connections at the same time, so identical jobs run
            // side by side (serve.exec_per_key).
            if (conns > 1)
                for (int i = 0; i < kOverlapPairs; ++i) {
                    JobRecord a, b;
                    a.job = b.job = overlap_traffic.draw().first;
                    a.fresh = true;
                    bool sent = submitJob(*cs[0], programs, nextSeq(), a);
                    sent &= submitJob(*cs[1], programs, nextSeq(), b);
                    if (sent) {
                        readJob(*cs[0], a);
                        readJob(*cs[1], b);
                    }
                    record(a, rd.overlap);
                    record(b, rd.overlap);
                }

            // Cache accounting over every job of the run.
            for (const auto *set : {&rd.closed, &rd.open, &rd.overlap})
                for (const JobRecord &r : *set) {
                    if (r.fresh)
                        tally.add("serve.distinct_queries",
                                  static_cast<double>(r.planned));
                    tally.add("serve.executed",
                              static_cast<double>(r.executed));
                    tally.add("serve.cached", static_cast<double>(r.cached));
                    tally.add("serve.queries", static_cast<double>(r.queries));
                }
            for (const JobRecord &r : rd.overlap) {
                if (r.fresh)
                    tally.add("serve.overlap_keys",
                              static_cast<double>(r.planned));
                tally.add("serve.overlap_executed",
                          static_cast<double>(r.executed));
            }
            double jps = rd.closed.size() / rd.closedSeconds;
            jobs_ps[traced ? 1 : 0] = jps;
            if (traced) {
                ++traced_rounds;
                std::uint64_t request = 0;
                for (const auto *set : {&rd.closed, &rd.open})
                    for (const JobRecord &r : *set)
                        traceJob(tracer, r, ++request);
                // Open-loop jobs only: a closed-loop submit waits
                // behind the job before it on its connection.
                for (const JobRecord &r : rd.open) {
                    tally.sample("serve.accept_ms",
                                 (r.accepted - r.send) * 1e3);
                    if (r.firstVerdict > 0)
                        tally.sample("serve.stream_ms",
                                     (r.done - r.firstVerdict) * 1e3);
                    tally.sample("serve.client_wait_ms",
                                 (r.send - r.due) * 1e3);
                }
                tally.sample("serve.generator_lag_ms",
                             rd.generatorLagMax * 1e3);
                // Admission runs one baseline per job: time it here,
                // at the same call boundary, once per program.
                for (const Program &p : programs) {
                    query::EnumerateOptions eo;
                    eo.sinks = p.sinks;
                    eo.vmConfig.predecoded = p.instrDecoded;
                    std::int64_t e0 = nowMicros();
                    {
                        SpanScope s(&tracer, "query.enumerateBaseline");
                        query::enumerateBaseline(*p.instrumented, p.world,
                                                 eo);
                    }
                    tally.add("query.enumerate_ms",
                              static_cast<double>(nowMicros() - e0) / 1e3);
                }
            } else {
                rounds.push_back(std::move(rd));
            }
        }
        if (args.trace)
            trace_ratio.push_back(jobs_ps[0] / jobs_ps[1]);
        ++round;
    } while (nowSeconds() < deadline);

    // A sequential resubmission of a finished job must be answered
    // from the cache alone.
    {
        JobRecord again;
        again.job = rounds.front().closed.front().job;
        runJob(*cs[0], programs, nextSeq(), again);
        if (!again.ok || again.executed != 0)
            res.ops.errors.push_back(programs[again.job.program].name +
                                     ": resubmission ran " +
                                     std::to_string(again.executed) +
                                     " dual executions");
    }
    cs.clear();
    daemon.stop();


    // Offline oracle: every distinct job's streamed graph must equal
    // an in-process runCampaign of the same program, world and offset.
    {
        std::vector<std::pair<Job, std::string>> todo(graphs.begin(),
                                                      graphs.end());
        std::atomic<std::size_t> next{0};
        std::mutex em;
        std::vector<std::thread> ts;
        for (int t = 0; t < static_cast<int>(std::min(nproc, 4L)); ++t)
            ts.emplace_back([&] {
                for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
                    const Program &p = programs[todo[i].first.program];
                    query::CampaignConfig cc;
                    cc.sinks = p.sinks;
                    cc.offset = todo[i].first.offset;
                    cc.vmConfig.predecoded = p.instrDecoded;
                    std::string offline;
                    try {
                        offline =
                            query::runCampaign(*p.instrumented, p.world, cc)
                                .graph.toJson();
                    } catch (const std::exception &e) {
                        offline = std::string("error: ") + e.what();
                    }
                    if (offline != todo[i].second) {
                        std::lock_guard<std::mutex> lock(em);
                        res.ops.errors.push_back(
                            p.name + "@" +
                            std::to_string(todo[i].first.offset) +
                            ": streamed graph differs from offline "
                            "runCampaign");
                    }
                }
            });
        for (std::thread &t : ts)
            t.join();
        res.notes.push_back("offline oracle checked " +
                            std::to_string(todo.size()) + " distinct jobs");
    }

    auto e2e = [&](const char *name, double v, const char *unit) {
        res.endToEnd[name] = {v, unit};
    };
    std::vector<double> jobs_ps, qps, job_ms, first_ms, campaign_ms,
        query_ms;
    std::vector<std::vector<RowTimes>> row_rounds;
    for (const RoundData &rd : rounds) {
        jobs_ps.push_back(rd.closed.size() / rd.closedSeconds);
        double queries = 0;
        for (const JobRecord &r : rd.closed)
            queries += static_cast<double>(r.queries);
        qps.push_back(queries / rd.closedSeconds);
        for (const JobRecord &r : rd.open) {
            job_ms.push_back((r.done - r.due) * 1e3);
            first_ms.push_back((r.firstVerdict - r.due) * 1e3);
            if (r.fresh && r.queries) {
                campaign_ms.push_back((r.done - r.accepted) * 1e3);
                query_ms.push_back((r.done - r.accepted) * 1e3 /
                                   static_cast<double>(r.queries));
            }
        }
        row_rounds.push_back(rd.rows);
    }
    e2e("setup_s", median(setup), "s");
    e2e("jobs_per_s", median(jobs_ps), "1/s");
    e2e("job_ms_p50", median(job_ms), "ms");
    e2e("job_ms_p95", tailPercentile(job_ms, 95), "ms");
    e2e("first_verdict_ms_p50", median(first_ms), "ms");
    e2e("queries_per_s", median(qps), "1/s");
    e2e("campaign_ms_p50", median(campaign_ms), "ms");
    e2e("query_ms_p50", median(query_ms), "ms");
    Fig6Summary f = summarizeRows(rows, row_rounds);
    e2e("native_ms", f.nativeMs, "ms");
    e2e("dual_ms", f.dualMs, "ms");
    e2e("overhead_same", f.overheadSame, "ratio");
    e2e("overhead_mutated", f.overheadMutated, "ratio");
    e2e("overhead_long", f.overheadLong, "ratio");

    if (args.trace) {
        layerMetrics(res, tally, tracer, traced_rounds, 1);
        double rounds_d = std::max(1, traced_rounds);
        res.perLayer["query.enumerate_ms"] = {
            tally.get("query.enumerate_ms") / rounds_d, "ms"};
        res.perLayer["serve.accept_ms_p50"] = {
            median(tally.samples("serve.accept_ms")), "ms"};
        res.perLayer["serve.stream_ms_p50"] = {
            median(tally.samples("serve.stream_ms")), "ms"};
        res.perLayer["serve.client_wait_ms_p95"] = {
            tailPercentile(tally.samples("serve.client_wait_ms"), 95), "ms"};
        std::vector<double> lag = tally.samples("serve.generator_lag_ms");
        res.perLayer["serve.generator_lag_ms_max"] = {
            lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()),
            "ms"};
        double distinct = tally.get("serve.distinct_queries");
        res.perLayer["serve.exec_per_key"] = {
            distinct > 0 ? tally.get("serve.executed") / distinct : 0.0,
            "ratio"};
        double queries = tally.get("serve.queries");
        res.perLayer["serve.cache_hit_ratio"] = {
            queries > 0 ? tally.get("serve.cached") / queries : 0.0, "ratio"};
        res.perLayer["bench.trace_overhead_pct"] = {
            (median(trace_ratio) - 1.0) * 100.0, "%"};
        std::string path = args.workDir + "/spans-serve-seed" +
                           std::to_string(args.seed) + ".json";
        if (tracer.write(path))
            res.notes.push_back("spans " + std::to_string(tracer.size()) +
                                " written to " + path);
    }
    res.notes.push_back(
        "overlap phase: " +
        std::to_string(static_cast<std::uint64_t>(
            tally.get("serve.overlap_executed"))) +
        " dual executions for " +
        std::to_string(static_cast<std::uint64_t>(
            tally.get("serve.overlap_keys"))) +
        " distinct query keys");
    std::string per_round;
    for (double j : jobs_ps)
        per_round += " " + std::to_string(static_cast<int>(j));
    res.notes.push_back("closed-loop jobs/s per round:" + per_round);
    std::size_t closed_jobs = 0, open_jobs = 0;
    for (const RoundData &rd : rounds) {
        closed_jobs += rd.closed.size();
        open_jobs += rd.open.size();
    }
    res.notes.push_back(
        "rounds " + std::to_string(round) + ", pool workers " +
        std::to_string(workers) + ", connections " + std::to_string(conns) +
        ", closed-loop jobs " + std::to_string(closed_jobs) +
        ", open-loop jobs " + std::to_string(open_jobs) + " at " +
        std::to_string(kOpenRate) + "/s");
    return res;
}

} // namespace ldx::perfbench
