/**
 * @file
 * Post-run campaign profiler (`ldx campaign --profile-out`).
 *
 * The causality graph is deliberately timing-free so it byte-diffs
 * across worker counts; the profiler is the opposite artifact — all
 * the timing and scheduling data a performance investigation needs,
 * written separately so the `ldx-campaign-graph-v1` output stays
 * untouched:
 *
 *  - disposition counts (completed / cached / timed-out / cancelled /
 *    failed) and dual-execution totals;
 *  - exec-latency and queue-wait percentile summaries (p50/p95/p99)
 *    over the executed queries;
 *  - cache and scheduler statistics plus per-worker busy time and
 *    overall pool utilization from the campaign registry;
 *  - the campaign phase breakdown (enumerate / plan / probe-cache /
 *    execute / aggregate);
 *  - the top-N slowest queries with per-phase (queue-wait, exec)
 *    breakdown, worker, status, and verdict quality.
 *
 * Schema `ldx-campaign-profile-v1`. Ordering is deterministic (ties
 * in the slowest-query ranking break on query index), but the values
 * are wall-clock measurements — never byte-diff this artifact.
 */
#pragma once

#include <cstddef>
#include <string>

#include "obs/profiler.h"
#include "obs/registry.h"
#include "query/campaign.h"

namespace ldx::query {

/** Profiler options. */
struct ProfileOptions
{
    /** Slowest-query entries reported (>= 0). */
    std::size_t topN = 10;
};

/**
 * Render the profile report of @p res as one JSON document.
 * @p snap is the campaign registry's post-run snapshot (cache and
 * utilization statistics are read from it).
 */
std::string profileJson(const CampaignResult &res,
                        const obs::MetricsSnapshot &snap,
                        const ProfileOptions &opt = {});

/**
 * Render the campaign's guest-site heat map (`--site-profile-out`,
 * schema `ldx-site-heat-v1`) from the per-query compact profiles in
 * CampaignResult::queryProfiles.
 *
 * Two views of the same counters:
 *
 *  - "sites": the program-wide hot list — every query's master-side
 *    costs summed per (fn, idx), ranked by retired instructions
 *    (ties break on (fn, idx)), capped at @p topSites;
 *  - "sources": one entry per queried source id in enumeration
 *    order, that source's queries merged, sites ranked by the
 *    master-vs-slave retired delta (the mutation's causal footprint)
 *    then by retired count.
 *
 * Built only from deterministic counters and merged in query-index
 * order, so the document is byte-identical across worker counts,
 * drivers, and dispatch modes.
 */
std::string siteHeatJson(const CampaignResult &res,
                         const obs::ProfileMeta &meta,
                         std::size_t topSites = 20);

} // namespace ldx::query
