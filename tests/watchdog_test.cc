/**
 * @file
 * Exactness wall for the lockstep watchdog fast-forward: when a
 * lockstep round is quiescent the driver jumps straight to the round
 * in which the first watchdog budget expires instead of spinning
 * through the idle rounds in between. Every output must stay
 * byte-identical to spinning, down to the watchdog counters, so the
 * figures below were captured from a driver that spun every idle
 * round, and are pinned here. Also: the wall-clock cap stops a
 * runaway pair on both drivers.
 *
 * The tables print themselves in table syntax when the environment
 * sets LDX_WATCHDOG_TABLE=1, e.g. with
 *   --gtest_filter='*WatchdogWall.*:FuzzWatchdog.*'
 * Regenerating them from the current driver only re-pins what it
 * does; a figure that moves is a behaviour change to explain.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "ldx/report.h"
#include "obs/recorder.h"
#include "query/verdict.h"
#include "workloads/workloads.h"

namespace ldx {
namespace {

using core::DualResult;
using core::EngineConfig;
using core::SourceSpec;
using workloads::Workload;

/** The four watchdog/idle counters, in the order they are pinned. */
struct WatchdogCounts
{
    std::uint64_t expired = 0;
    std::uint64_t polls = 0;
    std::uint64_t idleRounds = 0;
    std::uint64_t blockedPolls = 0;

    bool
    operator==(const WatchdogCounts &o) const
    {
        return expired == o.expired && polls == o.polls &&
               idleRounds == o.idleRounds &&
               blockedPolls == o.blockedPolls;
    }
};

std::ostream &
operator<<(std::ostream &os, const WatchdogCounts &c)
{
    return os << c.expired << " / " << c.polls << " / " << c.idleRounds
              << " / " << c.blockedPolls;
}

WatchdogCounts
countsOf(const DualResult &res)
{
    std::map<std::string, std::uint64_t> m(res.metrics.counters.begin(),
                                           res.metrics.counters.end());
    return {m["watchdog.expired"], m["watchdog.polls"],
            m["driver.idle_rounds"], m["chan.blocked_polls"]};
}

/**
 * Digest of everything a run reports that does not depend on wall
 * time: the stable metrics JSON, both sides' average counter (a
 * per-poll sample, printed exactly), and both flight-recorder event
 * streams minus their timestamps.
 */
std::uint64_t
digestOf(const DualResult &res)
{
    std::string s = core::resultJsonStable(res);
    char buf[96];
    std::snprintf(buf, sizeof buf, "|avg %a %a", res.masterStats.avgCnt,
                  res.slaveStats.avgCnt);
    s += buf;
    for (int side = 0; side < 2; ++side) {
        for (const obs::RecEvent &e : res.divergence.events[side]) {
            std::snprintf(buf, sizeof buf, "|%llu:%d:%u:%d:%lld:%lld:%llu",
                          static_cast<unsigned long long>(e.seq),
                          static_cast<int>(e.kind), e.tid, e.site,
                          static_cast<long long>(e.cnt),
                          static_cast<long long>(e.sysNo),
                          static_cast<unsigned long long>(e.arg));
            s += buf;
        }
    }
    return obs::fnv1a(s);
}

/** With LDX_WATCHDOG_TABLE set, print a table row for @p key. */
void
printRow(const std::string &key, std::uint64_t digest,
         const WatchdogCounts &c)
{
    if (!std::getenv("LDX_WATCHDOG_TABLE"))
        return;
    std::printf("    {%s, 0x%016llxULL, {%llu, %llu, %llu, %llu}},\n",
                key.c_str(), static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(c.expired),
                static_cast<unsigned long long>(c.polls),
                static_cast<unsigned long long>(c.idleRounds),
                static_cast<unsigned long long>(c.blockedPolls));
}

DualResult
runLockstep(const Workload &w, std::vector<SourceSpec> sources,
            bool predecode, std::uint64_t seed_delta,
            std::uint64_t budget = 0)
{
    EngineConfig cfg;
    cfg.sinks = w.sinks;
    cfg.sources = std::move(sources);
    cfg.threaded = false;
    cfg.wallClockCap = 120.0;
    cfg.vmConfig.predecode = predecode;
    cfg.slaveSchedSeedDelta = seed_delta;
    if (budget) {
        cfg.stallTimeout = budget;
        cfg.lockPollTimeout = budget;
    }
    core::DualEngine engine(workloads::workloadModule(w, true),
                            w.world(w.defaultScale), cfg);
    return engine.run();
}

// ------------------------------------------- 483.xalancbmk /doc.xml

/**
 * The one corpus query whose stall the fast-forward engages at the
 * default budgets: the slave's mutated document takes a different
 * parse, so the pair meets 141 mutual waits (49 at offset 0), each
 * resolved by a full 100,000-poll watchdog expiry.
 */
struct XalanCase
{
    const char *label;
    std::size_t offset;
    WatchdogCounts want;
};

const XalanCase kXalanCases[] = {
    {"whole", SourceSpec::kWholeValue, {141, 28200603, 14100000, 28200462}},
    {"offset0", 0, {49, 9800424, 4900003, 9800375}},
};

class XalanWatchdog : public ::testing::TestWithParam<XalanCase>
{};

TEST_P(XalanWatchdog, CountersIdenticalOnEveryPath)
{
    const XalanCase &c = GetParam();
    const Workload *w = workloads::findWorkload("483.xalancbmk");
    ASSERT_NE(w, nullptr);
    const std::vector<SourceSpec> src = {
        SourceSpec::file("/doc.xml", c.offset)};

    DualResult fast = runLockstep(*w, src, true, 0);
    DualResult legacy = runLockstep(*w, src, false, 0);
    DualResult jitter = runLockstep(*w, src, true, 3);
    EXPECT_EQ(countsOf(fast), c.want) << "predecode";
    EXPECT_EQ(countsOf(legacy), c.want) << "legacy step()";
    EXPECT_EQ(countsOf(jitter), c.want) << "slaveSchedSeedDelta 3";
    EXPECT_FALSE(fast.deadlocked);
    EXPECT_EQ(digestOf(fast), digestOf(legacy));
    EXPECT_EQ(core::resultJsonStable(fast),
              core::resultJsonStable(jitter));
}

INSTANTIATE_TEST_SUITE_P(
    Xalan, XalanWatchdog, ::testing::ValuesIn(kXalanCases),
    [](const ::testing::TestParamInfo<XalanCase> &info) {
        return std::string(info.param.label);
    });

// ------------------------------------------------ all 28 workloads

/**
 * One row per (workload, slave seed delta) at stallTimeout =
 * lockPollTimeout = 1000, where many more waits run their budget out
 * (multi-context guests under scheduler jitter included).
 */
struct WallRow
{
    const char *workload;
    bool whole; ///< every default source mutated whole-value
    std::uint64_t delta;
    std::uint64_t digest;
    WatchdogCounts counts;
};

const WallRow kWallRows[] = {
    {"400.perlbench", false, 0, 0x54f28761a1797798ULL, {0, 1252, 0, 1252}},
    {"400.perlbench", false, 3, 0x54f28761a1797798ULL, {0, 1252, 0, 1252}},
    {"400.perlbench", true, 0, 0x031f2f736e866c29ULL, {0, 825, 0, 825}},
    {"400.perlbench", true, 3, 0x031f2f736e866c29ULL, {0, 825, 0, 825}},
    {"401.bzip2", false, 0, 0xe16d129a33c02edbULL, {0, 3, 0, 3}},
    {"401.bzip2", false, 3, 0xe16d129a33c02edbULL, {0, 3, 0, 3}},
    {"401.bzip2", true, 0, 0xb2e7da2a767bbb4fULL, {0, 2, 0, 2}},
    {"401.bzip2", true, 3, 0xb2e7da2a767bbb4fULL, {0, 2, 0, 2}},
    {"403.gcc", false, 0, 0xc1c3ad1219c40510ULL, {0, 7, 0, 7}},
    {"403.gcc", false, 3, 0xc1c3ad1219c40510ULL, {0, 7, 0, 7}},
    {"403.gcc", true, 0, 0xc0bd300b6d76ed0cULL, {0, 7, 0, 7}},
    {"403.gcc", true, 3, 0xc0bd300b6d76ed0cULL, {0, 7, 0, 7}},
    {"429.mcf", false, 0, 0xc7d57d2a65909c87ULL, {0, 99, 0, 99}},
    {"429.mcf", false, 3, 0xc7d57d2a65909c87ULL, {0, 99, 0, 99}},
    {"429.mcf", true, 0, 0x7393982219cbdd3aULL, {0, 95, 0, 95}},
    {"429.mcf", true, 3, 0x7393982219cbdd3aULL, {0, 95, 0, 95}},
    {"445.gobmk", false, 0, 0x47b79f01fec01f37ULL, {0, 1, 0, 1}},
    {"445.gobmk", false, 3, 0x47b79f01fec01f37ULL, {0, 1, 0, 1}},
    {"445.gobmk", true, 0, 0x105903de1a5df7b9ULL, {0, 1, 0, 1}},
    {"445.gobmk", true, 3, 0x105903de1a5df7b9ULL, {0, 1, 0, 1}},
    {"456.hmmer", false, 0, 0x854bcec8adee7462ULL, {0, 23, 0, 23}},
    {"456.hmmer", false, 3, 0x854bcec8adee7462ULL, {0, 23, 0, 23}},
    {"456.hmmer", true, 0, 0xf1c045aab025545fULL, {0, 61, 0, 61}},
    {"456.hmmer", true, 3, 0xf1c045aab025545fULL, {0, 61, 0, 61}},
    {"458.sjeng", false, 0, 0x067c485ea5f567baULL, {0, 343, 0, 343}},
    {"458.sjeng", false, 3, 0x067c485ea5f567baULL, {0, 343, 0, 343}},
    {"458.sjeng", true, 0, 0x405a8bb749038630ULL, {0, 342, 0, 342}},
    {"458.sjeng", true, 3, 0x405a8bb749038630ULL, {0, 342, 0, 342}},
    {"462.libquantum", false, 0, 0xcc0cc7ca57aec421ULL, {0, 17, 0, 17}},
    {"462.libquantum", false, 3, 0xcc0cc7ca57aec421ULL, {0, 17, 0, 17}},
    {"462.libquantum", true, 0, 0x6716b8fd7d7dd20eULL, {0, 93, 0, 93}},
    {"462.libquantum", true, 3, 0x6716b8fd7d7dd20eULL, {0, 93, 0, 93}},
    {"464.h264ref", false, 0, 0x0af23e6aa0e750e5ULL, {0, 2, 0, 2}},
    {"464.h264ref", false, 3, 0x0af23e6aa0e750e5ULL, {0, 2, 0, 2}},
    {"464.h264ref", true, 0, 0x0af23e6aa0e750e5ULL, {0, 2, 0, 2}},
    {"464.h264ref", true, 3, 0x0af23e6aa0e750e5ULL, {0, 2, 0, 2}},
    {"471.omnetpp", false, 0, 0xa9fdeb38003ad1d4ULL, {0, 17, 0, 17}},
    {"471.omnetpp", false, 3, 0xa9fdeb38003ad1d4ULL, {0, 17, 0, 17}},
    {"471.omnetpp", true, 0, 0xa2c244231b63ad02ULL, {0, 39, 0, 39}},
    {"471.omnetpp", true, 3, 0xa2c244231b63ad02ULL, {0, 39, 0, 39}},
    {"473.astar", false, 0, 0xe6caaea792f4b0b2ULL, {0, 2571, 0, 2571}},
    {"473.astar", false, 3, 0xe6caaea792f4b0b2ULL, {0, 2571, 0, 2571}},
    {"473.astar", true, 0, 0x7bab4357ba3c87fcULL, {0, 66, 0, 66}},
    {"473.astar", true, 3, 0x7bab4357ba3c87fcULL, {0, 66, 0, 66}},
    {"483.xalancbmk", false, 0, 0x0ddc4c28ec366bbbULL, {0, 68, 0, 68}},
    {"483.xalancbmk", false, 3, 0x0ddc4c28ec366bbbULL, {0, 68, 0, 68}},
    {"483.xalancbmk", true, 0, 0x4cea6820236b294dULL, {0, 68, 0, 68}},
    {"483.xalancbmk", true, 3, 0x4cea6820236b294dULL, {0, 68, 0, 68}},
    {"firefox", false, 0, 0xdb7b8a2507f3307cULL, {0, 11, 0, 11}},
    {"firefox", false, 3, 0xdb7b8a2507f3307cULL, {0, 11, 0, 11}},
    {"firefox", true, 0, 0xc83aa395f7735bceULL, {0, 19, 0, 19}},
    {"firefox", true, 3, 0xc83aa395f7735bceULL, {0, 19, 0, 19}},
    {"lynx", false, 0, 0x0dc356d152c1b4acULL, {0, 2, 0, 2}},
    {"lynx", false, 3, 0x0dc356d152c1b4acULL, {0, 2, 0, 2}},
    {"lynx", true, 0, 0x5a1439b46bde15beULL, {0, 2, 0, 2}},
    {"lynx", true, 3, 0x5a1439b46bde15beULL, {0, 2, 0, 2}},
    {"nginx", false, 0, 0x718772c39103881eULL, {0, 11, 0, 11}},
    {"nginx", false, 3, 0x718772c39103881eULL, {0, 11, 0, 11}},
    {"nginx", true, 0, 0xd9224b4a406746a7ULL, {0, 16, 0, 16}},
    {"nginx", true, 3, 0xd9224b4a406746a7ULL, {0, 16, 0, 16}},
    {"tnftp", false, 0, 0xe3a4fae5708e6025ULL, {0, 10, 0, 10}},
    {"tnftp", false, 3, 0xe3a4fae5708e6025ULL, {0, 10, 0, 10}},
    {"tnftp", true, 0, 0xc49e9e318c916d7fULL, {0, 10, 0, 10}},
    {"tnftp", true, 3, 0xc49e9e318c916d7fULL, {0, 10, 0, 10}},
    {"sysstat", false, 0, 0xa299fd7c282bd39dULL, {0, 3, 0, 3}},
    {"sysstat", false, 3, 0xa299fd7c282bd39dULL, {0, 3, 0, 3}},
    {"sysstat", true, 0, 0xb6f19c8bdd855dcdULL, {0, 3, 0, 3}},
    {"sysstat", true, 3, 0xb6f19c8bdd855dcdULL, {0, 3, 0, 3}},
    {"gif2png", false, 0, 0x589b729761141573ULL, {0, 0, 0, 0}},
    {"gif2png", false, 3, 0x589b729761141573ULL, {0, 0, 0, 0}},
    {"gif2png", true, 0, 0x456856084b9af591ULL, {0, 0, 0, 0}},
    {"gif2png", true, 3, 0x456856084b9af591ULL, {0, 0, 0, 0}},
    {"mp3info", false, 0, 0xc26130f656d14fc3ULL, {0, 0, 0, 0}},
    {"mp3info", false, 3, 0xc26130f656d14fc3ULL, {0, 0, 0, 0}},
    {"mp3info", true, 0, 0x9b9942aa74cf6a42ULL, {0, 0, 0, 0}},
    {"mp3info", true, 3, 0x9b9942aa74cf6a42ULL, {0, 0, 0, 0}},
    {"prozilla", false, 0, 0x3f1612fed1145aecULL, {0, 0, 0, 0}},
    {"prozilla", false, 3, 0x3f1612fed1145aecULL, {0, 0, 0, 0}},
    {"prozilla", true, 0, 0x61ba2e2116c1d0cfULL, {0, 0, 0, 0}},
    {"prozilla", true, 3, 0x61ba2e2116c1d0cfULL, {0, 0, 0, 0}},
    {"yopsweb", false, 0, 0xe0a3e1b7ad2fd08bULL, {0, 0, 0, 0}},
    {"yopsweb", false, 3, 0xe0a3e1b7ad2fd08bULL, {0, 0, 0, 0}},
    {"yopsweb", true, 0, 0xe0a3e1b7ad2fd08bULL, {0, 0, 0, 0}},
    {"yopsweb", true, 3, 0xe0a3e1b7ad2fd08bULL, {0, 0, 0, 0}},
    {"ngircd", false, 0, 0x06cde69292c82855ULL, {0, 0, 0, 0}},
    {"ngircd", false, 3, 0x06cde69292c82855ULL, {0, 0, 0, 0}},
    {"ngircd", true, 0, 0x721055af2f5f54a4ULL, {0, 0, 0, 0}},
    {"ngircd", true, 3, 0x721055af2f5f54a4ULL, {0, 0, 0, 0}},
    {"gzip-alloc", false, 0, 0xbaa33c49f7a1024cULL, {0, 0, 0, 0}},
    {"gzip-alloc", false, 3, 0xbaa33c49f7a1024cULL, {0, 0, 0, 0}},
    {"gzip-alloc", true, 0, 0x1a590b50cd2b9792ULL, {0, 0, 0, 0}},
    {"gzip-alloc", true, 3, 0x1a590b50cd2b9792ULL, {0, 0, 0, 0}},
    {"apache", false, 0, 0xd8502dd5158a29b7ULL, {0, 25, 0, 41}},
    {"apache", false, 3, 0x0fd0c141abbc30d2ULL, {0, 45, 0, 52}},
    {"apache", true, 0, 0x925356766e89301dULL, {0, 25, 0, 41}},
    {"apache", true, 3, 0x71fa5f7c8b70dfc4ULL, {0, 45, 0, 52}},
    {"pbzip2", false, 0, 0xe80a66884c70a4e8ULL, {0, 3, 0, 3}},
    {"pbzip2", false, 3, 0x9560425567630e53ULL, {0, 3, 0, 4}},
    {"pbzip2", true, 0, 0x1983a5146be91084ULL, {0, 1, 0, 1}},
    {"pbzip2", true, 3, 0x6d9f7b9088a5a40fULL, {0, 1, 0, 2}},
    {"pigz", false, 0, 0xceaa354f6071879dULL, {0, 143, 0, 147}},
    {"pigz", false, 3, 0xf3e04a43b105cf85ULL, {0, 154, 0, 155}},
    {"pigz", true, 0, 0xb31ff087b8be1385ULL, {0, 95, 0, 100}},
    {"pigz", true, 3, 0xb6d75d6c11680f63ULL, {0, 114, 0, 114}},
    {"axel", false, 0, 0xd43986e75bfd33f2ULL, {0, 14, 0, 14}},
    {"axel", false, 3, 0x9969685d49f8c822ULL, {0, 42, 0, 42}},
    {"axel", true, 0, 0xcf14c56f9731caf9ULL, {0, 14, 0, 14}},
    {"axel", true, 3, 0xf1004a3fcdb0d90bULL, {0, 42, 0, 42}},
    {"x264", false, 0, 0x05a5abba552d73d9ULL, {0, 203, 0, 203}},
    {"x264", false, 3, 0xc7eea74254682c56ULL, {0, 259, 0, 259}},
    {"x264", true, 0, 0x5f15371c1732ac76ULL, {0, 203, 0, 203}},
    {"x264", true, 3, 0x90997585e4a3c5f9ULL, {0, 259, 0, 259}},
};

class WatchdogWall : public ::testing::TestWithParam<std::string>
{};

TEST_P(WatchdogWall, SmallBudgetsMatchTheSpinningDriver)
{
    const Workload *w = workloads::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    for (bool whole : {false, true}) {
        std::vector<SourceSpec> sources = w->sources;
        if (whole) {
            for (SourceSpec &s : sources)
                s = s.wholeValue();
        }
        for (std::uint64_t delta : {0u, 3u}) {
            DualResult res =
                runLockstep(*w, sources, true, delta, 1000);
            const std::uint64_t digest = digestOf(res);
            const WatchdogCounts got = countsOf(res);
            printRow("\"" + w->name + "\", " + (whole ? "true" : "false") +
                         ", " + std::to_string(delta),
                     digest, got);
            const WallRow *row = nullptr;
            for (const WallRow &r : kWallRows) {
                if (w->name == r.workload && r.whole == whole &&
                    r.delta == delta)
                    row = &r;
            }
            const std::string what = w->name + (whole ? " whole" : "") +
                                     " delta " + std::to_string(delta);
            EXPECT_NE(row, nullptr) << what;
            if (!row)
                continue;
            EXPECT_EQ(digest, row->digest) << what;
            EXPECT_EQ(got, row->counts) << what;
        }
    }
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, WatchdogWall, ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string s = info.param;
        for (char &ch : s) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return s;
    });

// ------------------------------------------- stalling fuzz programs

/**
 * Generated programs (fuzz::ProgramGenerator) whose /input.txt,
 * mutated whole-value, drives the pair into mutual waits at
 * stallTimeout = lockPollTimeout = 1000: watchdog expiries on input,
 * sink and barrier gates, lock-follow budgets running out (rows with
 * idle rounds but no watchdog expiry), and threaded guests whose
 * counters move with the slave's scheduler jitter. These are the
 * seeds below 700 with any idle round; each runs on the predecode and
 * the legacy path.
 */
struct FuzzRow
{
    std::uint64_t seed;
    std::uint64_t delta;
    std::uint64_t digest;
    WatchdogCounts counts;
};

const FuzzRow kFuzzRows[] = {
    {7, 0, 0xfde33d3646e5db3fULL, {4, 8024, 4000, 8020}},
    {7, 3, 0xfde33d3646e5db3fULL, {4, 8024, 4000, 8020}},
    {22, 0, 0xf582eab95b707596ULL, {0, 1001, 995, 2001}},
    {22, 3, 0xf582eab95b707596ULL, {0, 1001, 995, 2001}},
    {61, 0, 0x8968169e86df06bbULL, {4, 8075, 4000, 8074}},
    {61, 3, 0xbda0bb2cfe6d8500ULL, {4, 8076, 4000, 8075}},
    {73, 0, 0xc8621e91900753f8ULL, {0, 1002, 998, 2003}},
    {73, 3, 0xc8621e91900753f8ULL, {0, 1002, 998, 2003}},
    {92, 0, 0xdb4f49fc336966f5ULL, {5, 9020, 4000, 9015}},
    {92, 3, 0xdb4f49fc336966f5ULL, {5, 9020, 4000, 9015}},
    {114, 0, 0x9d24c620b2601c52ULL, {0, 1007, 998, 2009}},
    {114, 3, 0x9d24c620b2601c52ULL, {0, 1007, 998, 2009}},
    {130, 0, 0x4087bcfa1633b186ULL, {0, 1006, 999, 2008}},
    {130, 3, 0xbdb745747466e8f7ULL, {0, 1003, 997, 2006}},
    {175, 0, 0x948899e8ca9db9a8ULL, {7, 11016, 3996, 11009}},
    {175, 3, 0x948899e8ca9db9a8ULL, {7, 11016, 3996, 11009}},
    {183, 0, 0xa98fa2016a470edbULL, {0, 1007, 998, 2007}},
    {183, 3, 0x195deaadc5353b84ULL, {0, 1006, 997, 2006}},
    {185, 0, 0x3ee42494d2b6dbfcULL, {0, 1003, 997, 2003}},
    {185, 3, 0x3a93da2dca9b7623ULL, {0, 4, 0, 4}},
    {246, 0, 0x4a353bf9087d3c3aULL, {3, 6016, 3000, 6013}},
    {246, 3, 0x4a353bf9087d3c3aULL, {3, 6016, 3000, 6013}},
    {250, 0, 0x57fda8226e687a5eULL, {7, 14031, 7000, 14024}},
    {250, 3, 0x57fda8226e687a5eULL, {7, 14031, 7000, 14024}},
    {274, 0, 0xd64c5e15e0872938ULL, {1, 3007, 1999, 4006}},
    {274, 3, 0xd64c5e15e0872938ULL, {1, 3007, 1999, 4006}},
    {280, 0, 0x3711d27956fdf65cULL, {0, 1005, 994, 2007}},
    {280, 3, 0x90c8723746472efcULL, {0, 1005, 994, 2008}},
    {298, 0, 0x9133e75d99f55a6aULL, {0, 1003, 998, 2005}},
    {298, 3, 0x9133e75d99f55a6aULL, {0, 1003, 998, 2005}},
    {313, 0, 0x18703d9b484b3a84ULL, {3, 6032, 3000, 6029}},
    {313, 3, 0x18703d9b484b3a84ULL, {3, 6032, 3000, 6029}},
    {331, 0, 0xc74e2eb1ae6ed29aULL, {46, 92291, 46000, 92245}},
    {331, 3, 0xc74e2eb1ae6ed29aULL, {46, 92291, 46000, 92245}},
    {339, 0, 0x508cc02a1540865fULL, {0, 1003, 998, 2003}},
    {339, 3, 0x508cc02a1540865fULL, {0, 1003, 998, 2003}},
    {349, 0, 0xb24b0bbd19e0e243ULL, {1, 2015, 1000, 2015}},
    {349, 3, 0xb24b0bbd19e0e243ULL, {1, 2015, 1000, 2015}},
    {384, 0, 0x53b0072b4859c308ULL, {0, 1002, 998, 2003}},
    {384, 3, 0x53b0072b4859c308ULL, {0, 1002, 998, 2003}},
    {393, 0, 0x8adf24f42458877aULL, {6, 12030, 6000, 12024}},
    {393, 3, 0x8adf24f42458877aULL, {6, 12030, 6000, 12024}},
    {454, 0, 0x5c134c13d9c160c9ULL, {6, 12061, 6000, 12055}},
    {454, 3, 0x5c134c13d9c160c9ULL, {6, 12061, 6000, 12055}},
    {491, 0, 0x62648582a89f1a26ULL, {0, 1002, 997, 2003}},
    {491, 3, 0x62648582a89f1a26ULL, {0, 1002, 997, 2003}},
    {495, 0, 0xbc43445b1dadf4abULL, {0, 1002, 997, 2002}},
    {495, 3, 0x73cb0eac03cc6aadULL, {0, 4, 0, 4}},
    {515, 0, 0xed8ba8882621ed0eULL, {0, 1003, 998, 2003}},
    {515, 3, 0xed8ba8882621ed0eULL, {0, 1003, 998, 2003}},
    {571, 0, 0x642cb90c62a17ad7ULL, {4, 9013, 4998, 10009}},
    {571, 3, 0x642cb90c62a17ad7ULL, {4, 9013, 4998, 10009}},
    {614, 0, 0x1d3bfeb70df012ceULL, {6, 11014, 4993, 13008}},
    {614, 3, 0x4243bc49c55bca4dULL, {6, 11011, 4990, 13004}},
    {627, 0, 0x5201f70ef491fd32ULL, {4, 8025, 4000, 8022}},
    {627, 3, 0x5201f70ef491fd32ULL, {4, 8025, 4000, 8022}},
    {634, 0, 0x5280a5a306eb8d04ULL, {54, 108601, 54000, 108547}},
    {634, 3, 0x5280a5a306eb8d04ULL, {54, 108601, 54000, 108547}},
    {651, 0, 0xeb5292c4db3094eeULL, {3, 6014, 3000, 6011}},
    {651, 3, 0xeb5292c4db3094eeULL, {3, 6014, 3000, 6011}},
};

TEST(FuzzWatchdog, StallingSeedsMatchTheSpinningDriver)
{
    for (const FuzzRow &row : kFuzzRows) {
        auto module = lang::compileSource(
            fuzz::ProgramGenerator(row.seed).generate());
        instrument::CounterInstrumenter pass(*module);
        pass.run();
        auto run = [&](bool predecode) {
            EngineConfig cfg;
            cfg.sources = {SourceSpec::file("/input.txt",
                                            SourceSpec::kWholeValue)};
            cfg.wallClockCap = 120.0;
            cfg.vmConfig.predecode = predecode;
            cfg.slaveSchedSeedDelta = row.delta;
            cfg.stallTimeout = 1000;
            cfg.lockPollTimeout = 1000;
            core::DualEngine engine(
                *module, fuzz::ProgramGenerator::worldFor(row.seed), cfg);
            return engine.run();
        };
        const std::string key =
            std::to_string(row.seed) + ", " + std::to_string(row.delta);
        DualResult res = run(true);
        const std::uint64_t digest = digestOf(res);
        const WatchdogCounts got = countsOf(res);
        printRow(key, digest, got);
        EXPECT_EQ(digest, row.digest) << "seed, delta " << key;
        EXPECT_EQ(got, row.counts) << "seed, delta " << key;
        DualResult legacy = run(false);
        EXPECT_EQ(digestOf(legacy), digest) << key << " legacy";
        EXPECT_EQ(countsOf(legacy), got) << key << " legacy";
    }
}

// ------------------------------------------------ per-query deadline

/**
 * A guest that runs away in the slave only (it loops unless its
 * mutated environment still starts with 'a') keeps making progress,
 * so no watchdog ever fires; the wall-clock cap must still stop the
 * pair — judged by elapsed time, busy or idle — on both drivers.
 */
TEST(Deadline, RunawayGuestTimesOutOnBothDrivers)
{
    auto module = lang::compileSource(
        "int main() {\n"
        "    char x[8];\n"
        "    getenv(\"X\", x, 8);\n"
        "    int n = 0;\n"
        "    while (x[0] != 'a') { n = n + 1; }\n"
        "    print(\"done\", 4);\n"
        "    return 0;\n"
        "}\n");
    instrument::CounterInstrumenter pass(*module);
    pass.run();
    os::WorldSpec world;
    world.env["X"] = "abc";
    // Lockstep with its default quantum and with an unbounded one
    // (each side runs until it blocks), then threaded.
    for (int mode = 0; mode < 3; ++mode) {
        EngineConfig cfg;
        cfg.sources = {SourceSpec::env("X")};
        cfg.threaded = mode == 2;
        if (mode == 1)
            cfg.lockstepQuantum = 0;
        cfg.wallClockCap = 0.05;
        core::DualEngine engine(*module, world, cfg);
        const auto t0 = std::chrono::steady_clock::now();
        DualResult res = engine.run();
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        const char *what = mode == 0   ? "lockstep"
                           : mode == 1 ? "lockstep, unbounded quantum"
                                       : "threaded";
        EXPECT_TRUE(res.deadlocked) << what;
        EXPECT_EQ(query::verdictFromResult(res).quality,
                  query::VerdictQuality::TimedOut)
            << what;
        // Stepping to the 200M-instruction budget took seconds.
        EXPECT_LT(res.slaveStats.instructions, 100'000'000u) << what;
        EXPECT_LT(secs, 1.0) << what;
    }
}

} // namespace
} // namespace ldx
