/**
 * @file
 * Corpus validation: every workload compiles, verifies, instruments,
 * runs natively, dual-executes cleanly with no mutation (no false
 * positives), and produces the expected verdict for each declared
 * mutation case (Table 2 ground truth).
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fuzz/generator.h"
#include "instrument/instrument.h"
#include "ir/verifier.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "os/kernel.h"
#include "query/campaign.h"
#include "vm/machine.h"
#include "workloads/corpus/corpus.h"
#include "workloads/workloads.h"

namespace ldx {
namespace {

using workloads::Category;
using workloads::Workload;

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
  protected:
    const Workload &
    workload() const
    {
        const Workload *w = workloads::findWorkload(GetParam());
        EXPECT_NE(w, nullptr);
        return *w;
    }
};

TEST_P(WorkloadSuite, CompilesAndVerifies)
{
    const Workload &w = workload();
    const ir::Module &module = workloads::workloadModule(w, false);
    EXPECT_TRUE(ir::verifyModule(module).empty());
    const ir::Module &inst = workloads::workloadModule(w, true);
    EXPECT_TRUE(ir::verifyModule(inst).empty());
    EXPECT_TRUE(instrument::isInstrumented(inst));
}

TEST_P(WorkloadSuite, RunsNatively)
{
    const Workload &w = workload();
    os::Kernel kernel(w.world(w.defaultScale));
    vm::Machine machine(workloads::workloadModule(w, false), kernel, {});
    vm::StepStatus st = machine.run();
    if (w.category == Category::Vulnerable) {
        // The exploit input may crash the victim; both outcomes are
        // legitimate, but the program must terminate.
        EXPECT_TRUE(st == vm::StepStatus::Finished ||
                    st == vm::StepStatus::Trapped);
    } else {
        EXPECT_EQ(st, vm::StepStatus::Finished)
            << (machine.trap() ? machine.trap()->message : "");
    }
}

TEST_P(WorkloadSuite, DualExecutionWithoutMutationIsClean)
{
    const Workload &w = workload();
    core::EngineConfig cfg;
    cfg.sinks = w.sinks;
    cfg.wallClockCap = 30.0;
    core::DualEngine engine(workloads::workloadModule(w, true),
                            w.world(w.defaultScale), cfg);
    auto res = engine.run();
    EXPECT_FALSE(res.deadlocked);
    if (w.name == "x264") {
        // x264 emits a statistic from an unprotected racy counter;
        // the slave's coupling waits perturb its interleaving, so the
        // value can differ even without mutation. This is exactly the
        // false-positive class the paper's Limitations section and
        // Table 4 describe ("low level data races ... may induce
        // non-deterministic state differences"). Only that one sink
        // may fire.
        for (const core::Finding &f : res.findings) {
            EXPECT_TRUE(f.masterValue.find("x264.stats") !=
                        std::string::npos)
                << f.describe();
        }
        return;
    }
    EXPECT_FALSE(res.causality())
        << "false positive: " << res.findings[0].describe();
}

TEST_P(WorkloadSuite, MutationCasesMatchGroundTruth)
{
    const Workload &w = workload();
    for (const workloads::MutationCase &mc : w.mutationCases) {
        core::EngineConfig cfg;
        cfg.sinks = w.sinks;
        cfg.sources = mc.sources;
        cfg.wallClockCap = 30.0;
        core::DualEngine engine(workloads::workloadModule(w, true),
                                w.world(w.defaultScale), cfg);
        auto res = engine.run();
        EXPECT_FALSE(res.deadlocked) << w.name << "/" << mc.label;
        EXPECT_EQ(res.causality(), mc.expectLeak)
            << w.name << "/" << mc.label
            << (res.causality() ? " first: " + res.findings[0].describe()
                                : "");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, WorkloadSuite, ::testing::ValuesIn(allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(WorkloadRegistry, HasTwentyEightPrograms)
{
    EXPECT_EQ(workloads::allWorkloads().size(), 28u);
    EXPECT_EQ(workloads::workloadsIn(Category::Spec).size(), 12u);
    EXPECT_EQ(workloads::workloadsIn(Category::NetSys).size(), 5u);
    EXPECT_EQ(workloads::workloadsIn(Category::Vulnerable).size(), 6u);
    EXPECT_EQ(workloads::workloadsIn(Category::Concurrent).size(), 5u);
}

TEST(WorkloadRegistry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const Workload &w : workloads::allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
}

// ---------------------------------------------------------------
// Promoted golden corpus (src/workloads/corpus/): each checked-in
// fuzzer program's campaign graph must match its golden byte for
// byte — on one worker AND on four. A diff means some stage of the
// pipeline (front end, instrumentation, enumeration, dual execution,
// scheduling, aggregation) changed observable behaviour; regenerate
// the goldens only for intentional changes.
// ---------------------------------------------------------------

std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(LDX_CORPUS_DIR) + "/" + name +
                     ".golden.json");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

class GoldenCorpus : public ::testing::TestWithParam<std::string>
{};

TEST_P(GoldenCorpus, CampaignGraphMatchesGoldenBothModes)
{
    const workloads::CorpusEntry *entry = nullptr;
    for (const workloads::CorpusEntry &e : workloads::corpusEntries())
        if (e.name == GetParam())
            entry = &e;
    ASSERT_NE(entry, nullptr);

    std::string golden = readGolden(entry->name);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << entry->name << ".golden.json";

    auto module = lang::compileSource(entry->source);
    instrument::CounterInstrumenter pass(*module);
    pass.run();
    os::WorldSpec world =
        fuzz::ProgramGenerator::worldFor(entry->seed);

    query::CampaignConfig cfg;
    query::CampaignResult serial =
        query::runCampaign(*module, world, cfg);
    EXPECT_EQ(serial.graph.toJson(), golden);

    cfg.jobs = 4;
    query::CampaignResult parallel =
        query::runCampaign(*module, world, cfg);
    EXPECT_EQ(parallel.graph.toJson(), golden);
}

std::vector<std::string>
corpusNames()
{
    std::vector<std::string> names;
    for (const workloads::CorpusEntry &e : workloads::corpusEntries())
        names.push_back(e.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Promoted, GoldenCorpus, ::testing::ValuesIn(corpusNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(GoldenCorpus, HasTwelveDiverseEntries)
{
    const auto &entries = workloads::corpusEntries();
    EXPECT_EQ(entries.size(), 12u);
    std::set<std::string> names;
    bool any_threaded = false, any_single = false;
    for (const workloads::CorpusEntry &e : entries) {
        EXPECT_TRUE(names.insert(e.name).second) << e.name;
        (e.source.find("spawn(") != std::string::npos ? any_threaded
                                                      : any_single) =
            true;
    }
    EXPECT_TRUE(any_threaded);
    EXPECT_TRUE(any_single);
}

// The second corpus generation (s061..s183) was promoted for call
// depth and concurrency: every entry spawns at least two guest
// threads on top of a >=6-function call graph.
TEST(GoldenCorpus, SecondGenerationIsDeepAndThreaded)
{
    std::set<std::string> second = {"s061", "s092", "s134", "s183"};
    std::size_t seen = 0;
    for (const workloads::CorpusEntry &e : workloads::corpusEntries()) {
        if (!second.count(e.name))
            continue;
        ++seen;
        std::size_t spawns = 0;
        for (std::size_t at = e.source.find("spawn(");
             at != std::string::npos;
             at = e.source.find("spawn(", at + 1))
            ++spawns;
        EXPECT_GE(spawns, 2u) << e.name;
        std::size_t fns = 0;
        for (std::size_t at = e.source.find("\nint ");
             at != std::string::npos;
             at = e.source.find("\nint ", at + 1))
            if (e.source.find('(', at) <
                e.source.find('\n', at + 1))
                ++fns;
        EXPECT_GE(fns, 5u) << e.name << " call graph too shallow";
    }
    EXPECT_EQ(seen, second.size());
}

} // namespace
} // namespace ldx
