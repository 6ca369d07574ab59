#include "serve/protocol.h"

#include "obs/json.h"

namespace ldx::serve {

namespace {

using obs::jsonString;

/** Validate a policy name against ldx/mutation.h. */
bool
knownPolicy(const std::string &name)
{
    return name == "off-by-one" || name == "zero" ||
           name == "bit-flip" || name == "random";
}

} // namespace

std::optional<SubmitRequest>
parseSubmit(const JsonValue &frame, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    SubmitRequest req;
    req.id = frame.stringOr("id", "");
    if (req.id.empty())
        return fail("submit frame needs a non-empty \"id\"");
    req.workload = frame.stringOr("workload", "");
    req.source = frame.stringOr("source", "");
    if (req.workload.empty() == req.source.empty())
        return fail("submit frame needs exactly one of \"workload\" "
                    "or \"source\"");

    for (const char *map : {"env", "files"}) {
        const JsonValue *obj = frame.find(map);
        if (!obj)
            continue;
        if (!obj->isObject())
            return fail(std::string("\"") + map +
                        "\" must be an object of strings");
        for (const auto &[k, v] : obj->members) {
            if (!v.isString())
                return fail(std::string("\"") + map +
                            "\" values must be strings");
            (map[0] == 'e' ? req.env : req.files)[k] = v.str;
        }
    }

    if (const JsonValue *pol = frame.find("policies")) {
        if (!pol->isArray())
            return fail("\"policies\" must be an array of names");
        for (const JsonValue &p : pol->items) {
            if (!p.isString() || !knownPolicy(p.str))
                return fail("unknown policy " +
                            (p.isString() ? p.str : "<non-string>"));
            req.policies.push_back(p.str);
        }
        if (req.policies.empty())
            return fail("\"policies\" must not be empty");
    }

    if (frame.find("offset"))
        req.offset = frame.uintOr("offset", 0);
    req.threaded = frame.boolOr("threaded", false);
    if (frame.find("deadline_ms")) {
        std::uint64_t d = frame.uintOr("deadline_ms", 0);
        if (d == 0)
            return fail("\"deadline_ms\" must be a positive integer");
        req.deadlineMs = d;
    }
    return req;
}

std::string
renderHello(const std::string &version)
{
    std::string out = "{\"type\":\"hello\",\"proto\":";
    out += jsonString(kProtocol);
    if (!version.empty()) {
        out += ",\"version\":";
        out += jsonString(version);
    }
    out += "}";
    return out;
}

std::string
renderSubmit(const SubmitRequest &req)
{
    std::string out = "{\"type\":\"submit\",\"id\":";
    out += jsonString(req.id);
    if (!req.workload.empty()) {
        out += ",\"workload\":";
        out += jsonString(req.workload);
    }
    if (!req.source.empty()) {
        out += ",\"source\":";
        out += jsonString(req.source);
    }
    auto appendMap =
        [&](const char *name,
            const std::map<std::string, std::string> &map) {
            if (map.empty())
                return;
            out += ",\"";
            out += name;
            out += "\":{";
            bool first = true;
            for (const auto &[k, v] : map) {
                if (!first)
                    out += ',';
                first = false;
                out += jsonString(k);
                out += ':';
                out += jsonString(v);
            }
            out += '}';
        };
    appendMap("env", req.env);
    appendMap("files", req.files);
    if (!req.policies.empty()) {
        out += ",\"policies\":[";
        for (std::size_t i = 0; i < req.policies.size(); ++i) {
            if (i)
                out += ',';
            out += jsonString(req.policies[i]);
        }
        out += ']';
    }
    if (req.offset) {
        out += ",\"offset\":";
        out += std::to_string(*req.offset);
    }
    if (req.threaded)
        out += ",\"threaded\":true";
    if (req.deadlineMs) {
        out += ",\"deadline_ms\":";
        out += std::to_string(*req.deadlineMs);
    }
    out += "}";
    return out;
}

std::string
renderAccepted(const std::string &id, std::uint64_t queries)
{
    std::string out = "{\"type\":\"accepted\",\"id\":";
    out += jsonString(id);
    out += ",\"queries\":";
    out += std::to_string(queries);
    out += "}";
    return out;
}

std::string
renderRejected(const std::string &id, const std::string &reason)
{
    std::string out = "{\"type\":\"rejected\",\"id\":";
    out += jsonString(id);
    out += ",\"reason\":";
    out += jsonString(reason);
    out += "}";
    return out;
}

std::string
renderVerdict(const std::string &id, const query::CampaignQuery &q,
              const query::QueryVerdict &v, bool cached)
{
    std::string out = "{\"type\":\"verdict\",\"id\":";
    out += jsonString(id);
    out += ",\"query\":";
    out += std::to_string(q.index);
    out += ",\"source\":";
    out += jsonString(q.sourceId);
    out += ",\"policy\":";
    out += jsonString(core::mutationStrategyName(q.strategy));
    out += ",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"causality\":";
    out += v.causality ? "true" : "false";
    out += ",\"quality\":";
    out += jsonString(query::verdictQualityName(v.quality));
    out += ",\"edges\":";
    out += std::to_string(v.edges.size());
    out += "}";
    return out;
}

std::string
renderSkipped(const std::string &id, std::uint64_t index,
              const std::string &status)
{
    std::string out = "{\"type\":\"skipped\",\"id\":";
    out += jsonString(id);
    out += ",\"query\":";
    out += std::to_string(index);
    out += ",\"status\":";
    out += jsonString(status);
    out += "}";
    return out;
}

std::string
renderGraph(const std::string &id, const std::string &graphJson)
{
    std::string out = "{\"type\":\"graph\",\"id\":";
    out += jsonString(id);
    out += ",\"bytes\":";
    out += std::to_string(graphJson.size());
    out += ",\"json\":";
    out += jsonString(graphJson);
    out += "}";
    return out;
}

std::string
renderDone(const std::string &id, const DoneStats &stats)
{
    std::string out = "{\"type\":\"done\",\"id\":";
    out += jsonString(id);
    out += ",\"exit\":";
    out += std::to_string(stats.exit);
    out += ",\"queries\":";
    out += std::to_string(stats.queries);
    out += ",\"cached\":";
    out += std::to_string(stats.cached);
    out += ",\"executed\":";
    out += std::to_string(stats.executed);
    out += ",\"cancelled\":";
    out += std::to_string(stats.cancelled);
    out += ",\"failed\":";
    out += std::to_string(stats.failed);
    out += ",\"timed_out\":";
    out += std::to_string(stats.timedOut);
    out += ",\"edges\":";
    out += std::to_string(stats.edges);
    out += "}";
    return out;
}

std::string
renderDrained()
{
    return "{\"type\":\"drained\"}";
}

std::string
renderError(const std::string &message)
{
    std::string out = "{\"type\":\"error\",\"message\":";
    out += jsonString(message);
    out += "}";
    return out;
}

} // namespace ldx::serve
