#include "query/profile.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "support/stats.h"

namespace ldx::query {

namespace {

/** min/mean/p50/p95/p99/max summary of @p s as one JSON object. */
std::string
statsJson(const RunningStats &s)
{
    std::string out = "{";
    out += "\"count\":" +
           obs::jsonNumber(static_cast<std::uint64_t>(s.count()));
    out += ",\"min\":" + obs::jsonNumber(s.min());
    out += ",\"mean\":" + obs::jsonNumber(s.mean());
    out += ",\"p50\":" + obs::jsonNumber(s.p50());
    out += ",\"p95\":" + obs::jsonNumber(s.p95());
    out += ",\"p99\":" + obs::jsonNumber(s.p99());
    out += ",\"max\":" + obs::jsonNumber(s.max());
    out += "}";
    return out;
}

} // namespace

std::string
profileJson(const CampaignResult &res, const obs::MetricsSnapshot &snap,
            const ProfileOptions &opt)
{
    const std::size_t total = res.queries.size();

    // Disposition counts, same partition as the campaign.queries.*
    // fold: every query lands in exactly one bucket.
    std::uint64_t cached = 0, cancelled = 0, failed = 0, timed_out = 0,
                  completed = 0;
    // Executed (non-cached, Done) queries carry the timing data.
    RunningStats exec_s, wait_s;
    std::vector<std::size_t> executed;
    for (std::size_t i = 0; i < total; ++i) {
        if (res.fromCache[i]) {
            ++cached;
            continue;
        }
        switch (res.outcomes[i].status) {
          case RunStatus::Cancelled: ++cancelled; continue;
          case RunStatus::Failed: ++failed; break;
          case RunStatus::Done:
            if (res.verdicts[i] &&
                res.verdicts[i]->quality == VerdictQuality::TimedOut)
                ++timed_out;
            else
                ++completed;
            break;
        }
        executed.push_back(i);
        exec_s.add(res.outcomes[i].seconds);
        wait_s.add(res.outcomes[i].queueWaitSeconds);
    }

    std::string out = "{\"schema\":\"ldx-campaign-profile-v1\"";

    out += ",\"queries\":{";
    out += "\"total\":" + obs::jsonNumber(static_cast<std::uint64_t>(total));
    out += ",\"completed\":" + obs::jsonNumber(completed);
    out += ",\"cached\":" + obs::jsonNumber(cached);
    out += ",\"timed_out\":" + obs::jsonNumber(timed_out);
    out += ",\"cancelled\":" + obs::jsonNumber(cancelled);
    out += ",\"failed\":" + obs::jsonNumber(failed);
    out += ",\"dual_executions\":" + obs::jsonNumber(res.dualExecutions);
    out += "}";

    out += ",\"latency_seconds\":" + statsJson(exec_s);
    out += ",\"queue_wait_seconds\":" + statsJson(wait_s);

    out += ",\"cache\":{";
    out += "\"hits\":" + obs::jsonNumber(res.cacheHits);
    out += ",\"misses\":" + obs::jsonNumber(res.cacheMisses);
    out += ",\"evictions\":" + obs::jsonNumber(res.cacheEvictions);
    out += ",\"disk_loads\":" +
           obs::jsonNumber(snap.counterOr("campaign.cache.disk_loads"));
    out += ",\"disk_stores\":" +
           obs::jsonNumber(snap.counterOr("campaign.cache.disk_stores"));
    out += "}";

    out += ",\"sched\":{";
    out += "\"jobs\":" + obs::jsonNumber(snap.gaugeOr("campaign.sched.jobs"));
    out += ",\"utilization\":" +
           obs::jsonNumber(snap.gaugeOr("campaign.sched.utilization"));
    out += ",\"worker_busy_seconds\":[";
    for (std::size_t w = 0;; ++w) {
        std::string key = "campaign.sched.worker." + std::to_string(w) +
                          ".busy_seconds";
        double busy = snap.gaugeOr(key, -1.0); // busy time is never < 0
        if (busy < 0.0)
            break;
        if (w)
            out += ",";
        out += obs::jsonNumber(busy);
    }
    out += "]}";

    out += ",\"phases\":[";
    for (std::size_t i = 0; i < res.phases.size(); ++i) {
        if (i)
            out += ",";
        out += "{\"name\":" + obs::jsonString(res.phases[i].name);
        out += ",\"seconds\":" + obs::jsonNumber(res.phases[i].seconds);
        out += "}";
    }
    out += "]";

    // Top-N slowest executed queries, per-phase breakdown each.
    // Ties break on query index so the ordering is reproducible.
    std::sort(executed.begin(), executed.end(),
              [&](std::size_t a, std::size_t b) {
                  if (res.outcomes[a].seconds != res.outcomes[b].seconds)
                      return res.outcomes[a].seconds >
                             res.outcomes[b].seconds;
                  return a < b;
              });
    if (executed.size() > opt.topN)
        executed.resize(opt.topN);
    out += ",\"slowest\":[";
    for (std::size_t r = 0; r < executed.size(); ++r) {
        std::size_t i = executed[r];
        const CampaignQuery &q = res.queries[i];
        const RunOutcome &o = res.outcomes[i];
        if (r)
            out += ",";
        out += "{\"rank\":" +
               obs::jsonNumber(static_cast<std::uint64_t>(r + 1));
        out += ",\"query\":" +
               obs::jsonNumber(static_cast<std::uint64_t>(i));
        out += ",\"source\":" + obs::jsonString(q.sourceId);
        out += ",\"policy\":" + obs::jsonString(
                   core::mutationStrategyName(q.strategy));
        out += ",\"status\":" + obs::jsonString(runStatusName(o.status));
        out += ",\"quality\":" +
               (res.verdicts[i]
                    ? obs::jsonString(
                          verdictQualityName(res.verdicts[i]->quality))
                    : std::string("null"));
        out += ",\"seconds\":" + obs::jsonNumber(o.seconds);
        out += ",\"queue_wait_seconds\":" +
               obs::jsonNumber(o.queueWaitSeconds);
        out += ",\"worker\":" +
               obs::jsonNumber(static_cast<std::int64_t>(o.worker));
        out += "}";
    }
    out += "]}";
    return out;
}

namespace {

/** One merged heat-map site as a JSON object. */
std::string
heatSiteJson(const obs::ProfileMeta &meta, const SiteHeatEntry &e)
{
    const obs::SiteMeta *sm = nullptr;
    if (e.fn < meta.fns.size() &&
        e.idx < meta.fns[e.fn].sites.size())
        sm = &meta.fns[e.fn].sites[e.idx];
    std::string out = "{\"fn\":";
    out += e.fn < meta.fns.size()
               ? obs::jsonString(meta.fns[e.fn].name)
               : obs::jsonString("#" + std::to_string(e.fn));
    out += ",\"idx\":" +
           obs::jsonNumber(static_cast<std::uint64_t>(e.idx));
    if (sm) {
        out += ",\"op\":" + obs::jsonString(sm->op);
        out += ",\"line\":" +
               obs::jsonNumber(static_cast<std::int64_t>(sm->line));
        out += ",\"col\":" +
               obs::jsonNumber(static_cast<std::int64_t>(sm->col));
        if (sm->siteId >= 0)
            out += ",\"site\":" + obs::jsonNumber(sm->siteId);
    }
    out += ",\"retired\":" + obs::jsonNumber(e.retired);
    out += ",\"syscalls\":" + obs::jsonNumber(e.syscalls);
    out += ",\"sys_ticks\":" + obs::jsonNumber(e.sysTicks);
    out += ",\"d_retired\":" + obs::jsonNumber(e.dRetired);
    out += "}";
    return out;
}

/** Fold @p prof into the (fn, idx)-keyed accumulator @p acc. */
void
heatMerge(std::map<std::pair<std::uint32_t, std::uint32_t>,
                   SiteHeatEntry> &acc,
          const std::vector<SiteHeatEntry> &prof)
{
    for (const SiteHeatEntry &e : prof) {
        SiteHeatEntry &slot = acc[{e.fn, e.idx}];
        slot.fn = e.fn;
        slot.idx = e.idx;
        slot.retired += e.retired;
        slot.syscalls += e.syscalls;
        slot.sysTicks += e.sysTicks;
        slot.dRetired += e.dRetired;
    }
}

/**
 * Rank @p acc's sites with @p hotter, cap at @p topSites, and emit
 * the JSON array.
 */
std::string
heatRankedJson(const obs::ProfileMeta &meta,
               const std::map<std::pair<std::uint32_t, std::uint32_t>,
                              SiteHeatEntry> &acc,
               std::size_t topSites,
               bool (*hotter)(const SiteHeatEntry &,
                              const SiteHeatEntry &))
{
    std::vector<SiteHeatEntry> ranked;
    ranked.reserve(acc.size());
    for (const auto &kv : acc)
        ranked.push_back(kv.second);
    std::stable_sort(ranked.begin(), ranked.end(), hotter);
    if (ranked.size() > topSites)
        ranked.resize(topSites);
    std::string out = "[";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        if (i)
            out += ",";
        out += heatSiteJson(meta, ranked[i]);
    }
    out += "]";
    return out;
}

bool
hotterByRetired(const SiteHeatEntry &a, const SiteHeatEntry &b)
{
    if (a.retired != b.retired)
        return a.retired > b.retired;
    return std::make_pair(a.fn, a.idx) < std::make_pair(b.fn, b.idx);
}

bool
hotterByDelta(const SiteHeatEntry &a, const SiteHeatEntry &b)
{
    if (a.dRetired != b.dRetired)
        return a.dRetired > b.dRetired;
    if (a.retired != b.retired)
        return a.retired > b.retired;
    return std::make_pair(a.fn, a.idx) < std::make_pair(b.fn, b.idx);
}

} // namespace

std::string
siteHeatJson(const CampaignResult &res, const obs::ProfileMeta &meta,
             std::size_t topSites)
{
    using HeatMap = std::map<std::pair<std::uint32_t, std::uint32_t>,
                             SiteHeatEntry>;

    // Program-wide merge plus one accumulator per source id, both
    // folded in query-index order (the campaign's aggregation order).
    HeatMap global;
    std::vector<std::string> source_order;
    std::map<std::string, HeatMap> per_source;
    std::map<std::string, std::uint64_t> source_queries;
    std::uint64_t profiled = 0;
    for (std::size_t i = 0; i < res.queries.size(); ++i) {
        const std::vector<SiteHeatEntry> &prof = res.queryProfiles[i];
        if (prof.empty())
            continue;
        ++profiled;
        heatMerge(global, prof);
        const std::string &src = res.queries[i].sourceId;
        if (per_source.find(src) == per_source.end())
            source_order.push_back(src);
        heatMerge(per_source[src], prof);
        ++source_queries[src];
    }

    std::string out = "{\"schema\":\"ldx-site-heat-v1\"";
    out += ",\"program\":" + obs::jsonString(meta.program);
    out += ",\"queries\":" + obs::jsonNumber(
               static_cast<std::uint64_t>(res.queries.size()));
    out += ",\"profiled_queries\":" + obs::jsonNumber(profiled);

    out += ",\"sites\":" +
           heatRankedJson(meta, global, topSites, hotterByRetired);

    // Sources in enumeration (first-appearance) order; sites ranked
    // by the causal footprint of that source's mutations.
    out += ",\"sources\":[";
    for (std::size_t s = 0; s < source_order.size(); ++s) {
        const std::string &src = source_order[s];
        if (s)
            out += ",";
        out += "{\"source\":" + obs::jsonString(src);
        out += ",\"queries\":" + obs::jsonNumber(source_queries[src]);
        out += ",\"sites\":" + heatRankedJson(meta, per_source[src],
                                              topSites, hotterByDelta);
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace ldx::query
