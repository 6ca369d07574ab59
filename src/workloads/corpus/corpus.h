/**
 * @file
 * The promoted golden corpus (docs/CAMPAIGN.md "Golden corpus").
 *
 * Eight fuzzer-generated MiniC programs promoted from their seeds
 * into checked-in fixtures, each paired with a golden campaign graph
 * (`src/workloads/corpus/<name>.golden.json`). They freeze the whole
 * pipeline end to end — generator rendering, front end,
 * instrumentation, baseline enumeration, dual execution under every
 * policy, and graph aggregation: any change to any stage that
 * perturbs a campaign graph shows up as a byte diff against the
 * golden, at one worker and at several (tests/workloads_test.cc).
 *
 * The programs were picked for shape diversity: 2–4 queryable
 * sources, zero through four causal edges, single- and
 * multi-threaded guests. The source text is checked in verbatim (the
 * generator may evolve; the corpus must not drift with it), but each
 * entry keeps its originating seed because the world — /input.txt
 * bytes, /data.bin, the FUZZ env var, peer scripts — is still
 * derived via fuzz::ProgramGenerator::worldFor(seed).
 *
 * Regenerating goldens after an *intentional* graph change: rebuild,
 * run the corpus campaign per entry, and overwrite the .golden.json
 * files; the diff is the reviewable artifact.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ldx::workloads {

/** One promoted corpus program. */
struct CorpusEntry
{
    /** Stable name; the golden graph lives at <name>.golden.json. */
    std::string name;

    /** Originating generator seed (world derivation only). */
    std::uint64_t seed = 0;

    /** The promoted MiniC program, verbatim. */
    std::string source;
};

/** All promoted corpus entries, in name order. */
const std::vector<CorpusEntry> &corpusEntries();

} // namespace ldx::workloads
