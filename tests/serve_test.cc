/**
 * @file
 * `ldx serve` tests (src/serve/): the wire-format JSON parser, the
 * ldx-serve-v1 protocol frames, and the daemon end to end over a
 * real Unix-domain socket — frame order, byte-identical graphs vs
 * the offline campaign, the process-wide warm path, admission
 * control, and the SIGINT drain handshake.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "query/campaign.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace ldx {
namespace {

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

TEST(Wire, ParsesScalarsObjectsAndArrays)
{
    std::string err;
    auto v = serve::parseJson(
        R"({"a":1,"b":"x","c":[true,false,null],"d":{"e":-2.5}})",
        &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_EQ(v->uintOr("a", 0), 1u);
    EXPECT_EQ(v->stringOr("b", ""), "x");
    const serve::JsonValue *c = v->find("c");
    ASSERT_NE(c, nullptr);
    ASSERT_TRUE(c->isArray());
    ASSERT_EQ(c->items.size(), 3u);
    EXPECT_TRUE(c->items[0].boolean);
    const serve::JsonValue *d = v->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->find("e")->number, -2.5);
}

TEST(Wire, DecodesEscapesAndSurrogatePairs)
{
    std::string err;
    auto v = serve::parseJson(
        R"({"s":"a\nb\t\"q\" é 😀"})", &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_EQ(v->stringOr("s", ""),
              "a\nb\t\"q\" \xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(Wire, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(serve::parseJson("", &err).has_value());
    EXPECT_FALSE(serve::parseJson("{", &err).has_value());
    EXPECT_FALSE(serve::parseJson("{} trailing", &err).has_value());
    EXPECT_FALSE(serve::parseJson(R"({"a":01x})", &err).has_value());
    EXPECT_FALSE(
        serve::parseJson("{\"s\":\"bad \\q escape\"}", &err)
            .has_value());
    EXPECT_FALSE(
        serve::parseJson(R"({"s":"lone \udc00"})", &err).has_value());
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_FALSE(serve::parseJson(deep, &err).has_value());
}

TEST(Wire, UintOrRejectsNegativeAndFractional)
{
    std::string err;
    auto v = serve::parseJson(R"({"a":-1,"b":1.5,"c":3})", &err);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->uintOr("a", 7), 7u);
    EXPECT_EQ(v->uintOr("b", 7), 7u);
    EXPECT_EQ(v->uintOr("c", 7), 3u);
    EXPECT_EQ(v->uintOr("missing", 7), 7u);
}

// ---------------------------------------------------------------------
// Protocol frames
// ---------------------------------------------------------------------

TEST(Protocol, SubmitRoundTripsThroughTheWire)
{
    serve::SubmitRequest req;
    req.id = "job-1";
    req.source = "int main() { return 0; }";
    req.env["SECRET"] = "abc";
    req.files["/in.txt"] = "data\n";
    req.policies = {"off-by-one", "zero"};
    req.offset = 3;
    req.threaded = true;
    req.deadlineMs = 1234;

    std::string line = serve::renderSubmit(req);
    std::string err;
    auto frame = serve::parseJson(line, &err);
    ASSERT_TRUE(frame.has_value()) << err;
    auto parsed = serve::parseSubmit(*frame, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->id, req.id);
    EXPECT_EQ(parsed->source, req.source);
    EXPECT_EQ(parsed->env, req.env);
    EXPECT_EQ(parsed->files, req.files);
    EXPECT_EQ(parsed->policies, req.policies);
    EXPECT_EQ(parsed->offset, req.offset);
    EXPECT_TRUE(parsed->threaded);
    EXPECT_EQ(parsed->deadlineMs, req.deadlineMs);
}

TEST(Protocol, SubmitIgnoresRetiredSnapshotMember)
{
    // Old clients may still send "snapshot": the submit is accepted
    // and the member ignored, like any other unknown one.
    std::string err;
    auto frame = serve::parseJson(
        R"({"type":"submit","id":"j","workload":"mp3info",)"
        R"("snapshot":true,"no_such_member":1})",
        &err);
    ASSERT_TRUE(frame.has_value()) << err;
    auto parsed = serve::parseSubmit(*frame, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->workload, "mp3info");
    EXPECT_EQ(serve::renderSubmit(*parsed).find("snapshot"),
              std::string::npos);
}

TEST(Protocol, SubmitValidationRejectsBadRequests)
{
    auto parse = [](const std::string &json) {
        std::string err;
        auto frame = serve::parseJson(json, &err);
        EXPECT_TRUE(frame.has_value()) << err;
        return serve::parseSubmit(*frame, &err);
    };
    // Missing id.
    EXPECT_FALSE(parse(R"({"type":"submit","workload":"lynx"})")
                     .has_value());
    // Neither workload nor source.
    EXPECT_FALSE(parse(R"({"type":"submit","id":"j"})").has_value());
    // Both workload and source.
    EXPECT_FALSE(
        parse(
            R"({"type":"submit","id":"j","workload":"w","source":"s"})")
            .has_value());
    // Unknown policy.
    EXPECT_FALSE(
        parse(
            R"({"type":"submit","id":"j","workload":"w","policies":["nope"]})")
            .has_value());
    // Empty policy list.
    EXPECT_FALSE(
        parse(
            R"({"type":"submit","id":"j","workload":"w","policies":[]})")
            .has_value());
    // Non-string env value.
    EXPECT_FALSE(
        parse(
            R"({"type":"submit","id":"j","workload":"w","env":{"K":1}})")
            .has_value());
    // Zero deadline.
    EXPECT_FALSE(
        parse(
            R"({"type":"submit","id":"j","workload":"w","deadline_ms":0})")
            .has_value());
}

TEST(Protocol, FrameRenderingIsDeterministic)
{
    EXPECT_EQ(serve::renderHello(""),
              R"({"type":"hello","proto":"ldx-serve-v1"})");
    EXPECT_EQ(serve::renderAccepted("j", 6),
              R"({"type":"accepted","id":"j","queries":6})");
    EXPECT_EQ(serve::renderDrained(), R"({"type":"drained"})");
    serve::DoneStats stats;
    stats.exit = 1;
    stats.queries = 6;
    stats.cached = 2;
    stats.executed = 4;
    stats.edges = 1;
    EXPECT_EQ(
        serve::renderDone("j", stats),
        R"({"type":"done","id":"j","exit":1,"queries":6,"cached":2,)"
        R"("executed":4,"cancelled":0,"failed":0,"timed_out":0,)"
        R"("edges":1})");
}

// ---------------------------------------------------------------------
// Daemon end to end
// ---------------------------------------------------------------------

constexpr const char *kLeakProgram = R"(int main() {
    char secret[16];
    getenv("SECRET", secret, 16);
    int grade = 0;
    if (secret[0] == 'a') { grade = 1; } else { grade = 2; }
    char out[8];
    itoa(grade, out);
    print(out, strlen(out));
    return 0;
}
)";

/** A live daemon on a fresh socket, drained + joined on scope exit. */
struct TestDaemon
{
    std::filesystem::path dir;
    std::atomic<bool> shutdown{false};
    obs::Registry registry;
    serve::ServeConfig cfg;
    std::unique_ptr<serve::Server> server;
    std::thread thread;
    int serveExit = -1;

    explicit TestDaemon(const std::string &name,
                        std::size_t maxTenants = 4,
                        std::size_t maxJobQueries = 0)
    {
        dir = std::filesystem::temp_directory_path() / name;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        cfg.socketPath = (dir / "s.sock").string();
        cfg.jobs = 2;
        cfg.maxTenants = maxTenants;
        cfg.maxJobQueries = maxJobQueries;
        cfg.drainTimeoutMs = 10'000;
        cfg.registry = &registry;
        cfg.shutdown = &shutdown;
        server = std::make_unique<serve::Server>(cfg);
        std::string err;
        if (!server->start(&err))
            ADD_FAILURE() << err;
        thread = std::thread([this] { serveExit = server->serve(); });
    }

    void
    drain()
    {
        if (!thread.joinable())
            return;
        shutdown.store(true);
        thread.join();
    }

    ~TestDaemon()
    {
        drain();
        server.reset();
        std::filesystem::remove_all(dir);
    }
};

serve::SubmitOptions
leakJob(const TestDaemon &daemon, const std::string &id)
{
    serve::SubmitOptions opts;
    opts.socketPath = daemon.cfg.socketPath;
    opts.request.id = id;
    opts.request.source = kLeakProgram;
    opts.request.env["SECRET"] = "abc";
    return opts;
}

TEST(Serve, StreamedGraphMatchesTheOfflineCampaign)
{
    TestDaemon daemon("ldx_serve_bytes_test");
    serve::SubmitOptions opts = leakJob(daemon, "job-1");
    opts.graphOut = (daemon.dir / "served.json").string();

    std::ostringstream out, err;
    int rc = serve::runSubmit(opts, out, err);
    EXPECT_EQ(rc, 1) << err.str(); // causality in the leak program
    EXPECT_NE(out.str().find("queries: 3 (0 cached, 3 executed"),
              std::string::npos)
        << out.str();

    // The offline reference: same program, same world, defaults.
    auto module = lang::compileSource(kLeakProgram);
    instrument::CounterInstrumenter pass(*module);
    pass.run();
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    query::CampaignResult res =
        query::runCampaign(*module, world, query::CampaignConfig{});

    std::ifstream in(opts.graphOut, std::ios::binary);
    std::ostringstream served;
    served << in.rdbuf();
    EXPECT_EQ(served.str(), res.graph.toJson());
    EXPECT_EQ(daemon.server->jobsAccepted(), 1u);
}

TEST(Serve, SecondSubmissionIsServedEntirelyFromTheSharedCache)
{
    TestDaemon daemon("ldx_serve_warm_test");
    std::ostringstream out1, out2, err;
    EXPECT_EQ(serve::runSubmit(leakJob(daemon, "cold"), out1, err), 1);
    EXPECT_NE(out1.str().find("(0 cached, 3 executed"),
              std::string::npos)
        << out1.str();
    // Same program from a "different client": zero dual executions.
    EXPECT_EQ(serve::runSubmit(leakJob(daemon, "warm"), out2, err), 1);
    EXPECT_NE(out2.str().find("(3 cached, 0 executed"),
              std::string::npos)
        << out2.str();
    EXPECT_EQ(
        daemon.registry.counter("serve.dual_executions").value(), 3u);
}

TEST(Serve, ConcurrentTenantsGetByteIdenticalGraphs)
{
    TestDaemon daemon("ldx_serve_tenants_test");
    constexpr int kTenants = 3;
    std::vector<std::thread> clients;
    std::vector<int> rcs(kTenants, -1);
    for (int t = 0; t < kTenants; ++t)
        clients.emplace_back([&, t] {
            serve::SubmitOptions opts =
                leakJob(daemon, "t" + std::to_string(t));
            opts.graphOut =
                (daemon.dir / ("g" + std::to_string(t) + ".json"))
                    .string();
            std::ostringstream out, err;
            rcs[t] = serve::runSubmit(opts, out, err);
        });
    for (std::thread &c : clients)
        c.join();

    std::vector<std::string> graphs;
    for (int t = 0; t < kTenants; ++t) {
        EXPECT_EQ(rcs[t], 1);
        std::ifstream in(daemon.dir /
                             ("g" + std::to_string(t) + ".json"),
                         std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        graphs.push_back(buf.str());
    }
    EXPECT_FALSE(graphs[0].empty());
    for (int t = 1; t < kTenants; ++t)
        EXPECT_EQ(graphs[t], graphs[0]) << "tenant " << t;
}

TEST(Serve, OversizedJobsAreRejectedBeforeExecution)
{
    // The leak program plans 1 source x 3 policies = 3 queries.
    TestDaemon daemon("ldx_serve_cap_test", 4, 2);
    std::ostringstream out, err;
    EXPECT_EQ(serve::runSubmit(leakJob(daemon, "big"), out, err), 2);
    EXPECT_NE(err.str().find("rejected"), std::string::npos)
        << err.str();
    EXPECT_NE(err.str().find("job too large"), std::string::npos)
        << err.str();
    EXPECT_EQ(daemon.server->jobsRejected(), 1u);
    EXPECT_EQ(
        daemon.registry.counter("serve.dual_executions").value(), 0u);
}

TEST(Serve, BadProgramsAreRejectedNotFatal)
{
    TestDaemon daemon("ldx_serve_badprog_test");
    serve::SubmitOptions opts;
    opts.socketPath = daemon.cfg.socketPath;
    opts.request.id = "broken";
    opts.request.source = "int main( { this is not minic";
    std::ostringstream out, err;
    EXPECT_EQ(serve::runSubmit(opts, out, err), 2);
    EXPECT_NE(err.str().find("rejected"), std::string::npos)
        << err.str();
    // The daemon survives and serves the next job normally.
    std::ostringstream out2, err2;
    EXPECT_EQ(serve::runSubmit(leakJob(daemon, "ok"), out2, err2), 1);
}

TEST(Serve, UnknownWorkloadNamesAreRejected)
{
    TestDaemon daemon("ldx_serve_unknown_test");
    serve::SubmitOptions opts;
    opts.socketPath = daemon.cfg.socketPath;
    opts.request.id = "ghost";
    opts.request.workload = "no-such-workload";
    std::ostringstream out, err;
    EXPECT_EQ(serve::runSubmit(opts, out, err), 2);
    EXPECT_NE(err.str().find("unknown workload"), std::string::npos)
        << err.str();
}

/** Raw protocol client: connect, send frames, collect reply lines. */
struct RawClient
{
    int fd = -1;
    std::string buf;

    explicit RawClient(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~RawClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    send(const std::string &frame)
    {
        std::string line = frame + "\n";
        ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(line.size()));
    }

    /** Next line; empty on EOF. */
    std::string
    readLine()
    {
        for (;;) {
            std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return "";
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }
};

TEST(Serve, FrameOrderIsHelloVerdictsGraphDone)
{
    TestDaemon daemon("ldx_serve_frames_test");
    RawClient client(daemon.cfg.socketPath);
    ASSERT_GE(client.fd, 0);

    serve::SubmitRequest req;
    req.id = "frames";
    req.source = kLeakProgram;
    req.env["SECRET"] = "abc";
    client.send(serve::renderHello(""));
    client.send(serve::renderSubmit(req));

    std::vector<std::string> types;
    std::vector<std::uint64_t> verdictIndices;
    for (;;) {
        std::string line = client.readLine();
        ASSERT_FALSE(line.empty()) << "connection dropped early";
        std::string err;
        auto frame = serve::parseJson(line, &err);
        ASSERT_TRUE(frame.has_value()) << err << ": " << line;
        std::string type = frame->stringOr("type", "");
        types.push_back(type);
        if (type == "verdict")
            verdictIndices.push_back(frame->uintOr("query", 99));
        if (type == "done")
            break;
    }
    ASSERT_GE(types.size(), 6u);
    EXPECT_EQ(types.front(), "hello");
    EXPECT_EQ(types[1], "accepted");
    EXPECT_EQ(types[types.size() - 2], "graph");
    EXPECT_EQ(types.back(), "done");
    // Verdicts stream in strict query-index order.
    ASSERT_EQ(verdictIndices.size(), 3u);
    for (std::size_t i = 0; i < verdictIndices.size(); ++i)
        EXPECT_EQ(verdictIndices[i], i);
}

TEST(Serve, DrainSendsTerminalFrameToIdleClients)
{
    TestDaemon daemon("ldx_serve_drain_test");
    RawClient client(daemon.cfg.socketPath);
    ASSERT_GE(client.fd, 0);
    client.send(serve::renderHello(""));
    std::string hello = client.readLine();
    EXPECT_NE(hello.find("\"hello\""), std::string::npos);

    daemon.drain();
    EXPECT_EQ(daemon.serveExit, 0);
    // The connected-but-idle client got exactly one terminal frame.
    std::string last = client.readLine();
    EXPECT_EQ(last, serve::renderDrained());
    EXPECT_EQ(client.readLine(), ""); // then EOF
    EXPECT_EQ(daemon.registry.gauge("serve.draining").value(), 2.0);
}

} // namespace
} // namespace ldx
