/**
 * @file
 * `ldx-serve-v1` — the newline-delimited JSON framing protocol
 * between `ldx serve` and its clients (docs/SERVE.md "Protocol").
 *
 * Every frame is one JSON object on one line. Client -> server:
 *
 *   {"type":"hello","proto":"ldx-serve-v1"}
 *   {"type":"submit","id":"job-1","workload":"grep", ...}
 *
 * Server -> client (per job, in this order):
 *
 *   {"type":"hello","proto":"ldx-serve-v1","version":...}
 *   {"type":"accepted","id":...,"queries":N}          (or "rejected")
 *   {"type":"verdict","id":...,"query":i,...}  x N    (index order)
 *   {"type":"skipped","id":...,"query":i,"status":..} (drain only)
 *   {"type":"graph","id":...,"json":"<graph bytes>"}
 *   {"type":"done","id":...,"exit":E, ...stats}
 *   {"type":"drained"}                                (server drain)
 *
 * Frame rendering is deterministic (fixed member order, no
 * timestamps), which is what lets the CI smoke test byte-compare a
 * served graph against the offline `ldx campaign --graph-out`
 * artifact and a whole response stream against a replay.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ldx/mutation.h"
#include "query/verdict.h"
#include "serve/wire.h"

namespace ldx::serve {

/** Protocol identifier carried by both hello frames. */
constexpr const char *kProtocol = "ldx-serve-v1";

/** One parsed `submit` frame. */
struct SubmitRequest
{
    std::string id; ///< client-chosen job id, echoed on every frame

    /** Built-in workload or promoted corpus entry name. Mutually
     *  exclusive with `source`. */
    std::string workload;

    /** Inline MiniC program text (compiled + instrumented server
     *  side); world built from `env`/`files`. */
    std::string source;

    std::map<std::string, std::string> env;
    std::map<std::string, std::string> files;

    /** Policy names (ldx/mutation.h); empty = campaign default. */
    std::vector<std::string> policies;

    std::optional<std::uint64_t> offset; ///< mutation byte offset
    bool threaded = false;
    std::optional<std::uint64_t> deadlineMs;
};

/**
 * Parse a `submit` frame body. Returns nullopt and sets @p error on
 * a malformed request (missing id, neither/both of workload+source,
 * unknown policy name).
 */
std::optional<SubmitRequest> parseSubmit(const JsonValue &frame,
                                         std::string *error);

/** Render a client or server hello. @p version empty = client. */
std::string renderHello(const std::string &version);

/** Render a submit frame from @p req (the client side). */
std::string renderSubmit(const SubmitRequest &req);

std::string renderAccepted(const std::string &id,
                           std::uint64_t queries);
std::string renderRejected(const std::string &id,
                           const std::string &reason);

/** Per-query verdict frame (index order on the wire). */
std::string renderVerdict(const std::string &id,
                          const query::CampaignQuery &q,
                          const query::QueryVerdict &v, bool cached);

/** Terminal frame for a query that never produced a verdict. */
std::string renderSkipped(const std::string &id, std::uint64_t index,
                          const std::string &status);

/** The campaign graph, embedded verbatim as an escaped string. */
std::string renderGraph(const std::string &id,
                        const std::string &graphJson);

/** Job stats for the terminal done frame. */
struct DoneStats
{
    int exit = 0; ///< the offline `ldx campaign` exit code
    std::uint64_t queries = 0;
    std::uint64_t cached = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t edges = 0;
};

std::string renderDone(const std::string &id, const DoneStats &stats);

/** Terminal broadcast when the server drains (SIGINT). */
std::string renderDrained();

/** Protocol-level error report (frame could not be handled). */
std::string renderError(const std::string &message);

} // namespace ldx::serve
