#include "protocol.hh"

#include <sstream>

#include "campaign/campaign.hh"
#include "tool/jsonio.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "tool/schema.hh"

namespace specsec::serve
{

namespace
{

std::string
quoted(const std::string &s)
{
    return "\"" + tool::jsonEscape(s) + "\"";
}

std::string
num(double value)
{
    // Exact17 so wallMillis round-trips bit-exactly, like every
    // other double on the tree's wire formats.
    return tool::formatDouble(value, tool::DoubleStyle::Exact17);
}

/** Expect the next object key to be exactly @p name. */
bool
expectKey(tool::json::Cursor &cur, const char *name)
{
    const std::string key = cur.parseString();
    if (cur.failed())
        return false;
    if (key != name)
        return cur.fail("expected key '" + std::string(name) +
                        "', got '" + key + "'");
    return cur.expect(':');
}

} // namespace

std::string
helloLine(const HelloMsg &msg, bool with_workers)
{
    std::ostringstream os;
    os << "{\"type\": \"hello\", \"protocol\": " << msg.protocol
       << ", \"schema\": " << quoted(msg.schema)
       << ", \"fingerprint\": " << quoted(msg.fingerprint);
    if (with_workers)
        os << ", \"workers\": " << msg.workers;
    os << "}";
    return os.str();
}

std::string
submitLine(const SubmitMsg &msg)
{
    std::string out =
        "{\"type\": \"submit\", \"name\": " + quoted(msg.name) +
        ", \"keys\": [";
    for (std::size_t i = 0; i < msg.keys.size(); ++i) {
        if (i)
            out += ", ";
        out += quoted(msg.keys[i]);
    }
    out += "]}";
    return out;
}

std::string
resultLine(const ResultMsg &msg)
{
    std::ostringstream os;
    os << "{\"type\": \"result\", \"index\": " << msg.index
       << ", \"cached\": " << (msg.cached ? "true" : "false")
       << ", \"wallMillis\": " << num(msg.wallMillis)
       << ", \"result\": " << tool::attackResultJson(msg.result)
       << ", \"stats\": " << tool::cpuStatsJson(msg.stats) << "}";
    return os.str();
}

std::string
doneLine(const DoneMsg &msg)
{
    std::ostringstream os;
    os << "{\"type\": \"done\", \"executed\": " << msg.executed
       << ", \"cacheHits\": " << msg.cacheHits
       << ", \"wallMillis\": " << num(msg.wallMillis) << "}";
    return os.str();
}

std::string
okLine(std::size_t count)
{
    return "{\"type\": \"ok\", \"count\": " +
           std::to_string(count) + "}";
}

std::string
statsRequestLine()
{
    return "{\"type\": \"stats\"}";
}

std::string
statsLine(const StatsMsg &msg)
{
    std::ostringstream os;
    os << "{\"type\": \"stats\"";
    for (const StatsField &field : kStatsFields)
        os << ", \"" << field.name << "\": " << msg.*field.member;
    os << "}";
    return os.str();
}

std::string
shutdownLine()
{
    return "{\"type\": \"shutdown\"}";
}

std::string
errorLine(const std::string &message)
{
    return "{\"type\": \"error\", \"message\": " + quoted(message) +
           "}";
}

ParsedMsg
parseLine(const std::string &line)
{
    ParsedMsg msg;
    tool::json::Cursor cur(line);
    const auto invalid = [&](const std::string &fallback) {
        msg.type = MsgType::Invalid;
        msg.error = cur.error().empty() ? fallback : cur.error();
        return msg;
    };

    if (!cur.expect('{') || !expectKey(cur, "type"))
        return invalid("message is not a JSON object");
    const std::string type = cur.parseString();
    if (cur.failed())
        return invalid("missing message type");

    if (type == "hello") {
        if (!cur.expect(',') || !expectKey(cur, "protocol"))
            return invalid("malformed hello");
        msg.hello.protocol = cur.parseUnsigned();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "schema"))
            return invalid("malformed hello");
        msg.hello.schema = cur.parseString();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "fingerprint"))
            return invalid("malformed hello");
        msg.hello.fingerprint = cur.parseString();
        if (cur.failed())
            return invalid("malformed hello");
        if (cur.peekConsume(',')) {
            if (!expectKey(cur, "workers"))
                return invalid("malformed hello");
            msg.hello.workers = cur.parseUnsigned();
            if (cur.failed())
                return invalid("malformed hello");
        }
        if (!cur.expect('}') || !cur.atEnd())
            return invalid("trailing bytes after hello");
        msg.type = MsgType::Hello;
        return msg;
    }
    if (type == "submit") {
        if (!cur.expect(',') || !expectKey(cur, "name"))
            return invalid("malformed submit");
        msg.submit.name = cur.parseString();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "keys"))
            return invalid("malformed submit");
        msg.submit.keys = tool::json::parseStringArray(cur);
        if (cur.failed() || !cur.expect('}') || !cur.atEnd())
            return invalid("malformed submit");
        msg.type = MsgType::Submit;
        return msg;
    }
    if (type == "result") {
        if (!cur.expect(',') || !expectKey(cur, "index"))
            return invalid("malformed result");
        msg.result.index = cur.parseU64();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "cached"))
            return invalid("malformed result");
        msg.result.cached = cur.parseBool();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "wallMillis"))
            return invalid("malformed result");
        msg.result.wallMillis = cur.parseDouble();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "result") ||
            !tool::parseAttackResultJson(cur, msg.result.result))
            return invalid("malformed result payload");
        if (!cur.expect(',') || !expectKey(cur, "stats") ||
            !tool::parseCpuStatsJson(cur, msg.result.stats))
            return invalid("malformed result stats");
        if (!cur.expect('}') || !cur.atEnd())
            return invalid("trailing bytes after result");
        msg.type = MsgType::Result;
        return msg;
    }
    if (type == "done") {
        if (!cur.expect(',') || !expectKey(cur, "executed"))
            return invalid("malformed done");
        msg.done.executed = cur.parseU64();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "cacheHits"))
            return invalid("malformed done");
        msg.done.cacheHits = cur.parseU64();
        if (cur.failed() || !cur.expect(',') ||
            !expectKey(cur, "wallMillis"))
            return invalid("malformed done");
        msg.done.wallMillis = cur.parseDouble();
        if (cur.failed() || !cur.expect('}') || !cur.atEnd())
            return invalid("malformed done");
        msg.type = MsgType::Done;
        return msg;
    }
    if (type == "ok") {
        if (!cur.expect(',') || !expectKey(cur, "count"))
            return invalid("malformed ok");
        msg.ok.count = cur.parseU64();
        if (cur.failed() || !cur.expect('}') || !cur.atEnd())
            return invalid("malformed ok");
        msg.type = MsgType::Ok;
        return msg;
    }
    if (type == "stats") {
        if (cur.peekConsume('}')) {
            if (!cur.atEnd())
                return invalid("trailing bytes after stats");
            msg.type = MsgType::Stats; // bare request
            return msg;
        }
        for (const StatsField &field : kStatsFields) {
            if (!cur.expect(',') || !expectKey(cur, field.name))
                return invalid("malformed stats");
            msg.stats.*field.member = cur.parseU64();
            if (cur.failed())
                return invalid("malformed stats");
        }
        if (!cur.expect('}') || !cur.atEnd())
            return invalid("malformed stats");
        msg.type = MsgType::Stats;
        return msg;
    }
    if (type == "shutdown") {
        if (!cur.expect('}') || !cur.atEnd())
            return invalid("malformed shutdown");
        msg.type = MsgType::Shutdown;
        return msg;
    }
    if (type == "error") {
        if (!cur.expect(',') || !expectKey(cur, "message"))
            return invalid("malformed error");
        msg.error = cur.parseString();
        if (cur.failed() || !cur.expect('}') || !cur.atEnd())
            return invalid("malformed error");
        msg.type = MsgType::Error;
        return msg;
    }
    return invalid("unknown message type '" + type + "'");
}

HelloMsg
localHello()
{
    HelloMsg msg;
    msg.protocol = kProtocolVersion;
    msg.schema = tool::wireSchemaTag();
    msg.fingerprint = campaign::modelFingerprint();
    return msg;
}

bool
checkHello(const HelloMsg &peer, std::string *error)
{
    const HelloMsg ours = localHello();
    const auto fail = [error](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    if (peer.protocol != ours.protocol)
        return fail("protocol version mismatch: peer speaks v" +
                    std::to_string(peer.protocol) +
                    ", this binary speaks v" +
                    std::to_string(ours.protocol));
    if (peer.schema != ours.schema)
        return fail(
            "schema tag mismatch: peer '" + peer.schema +
            "' vs local '" + ours.schema +
            "' (rebuild both sides from the same field lists)");
    if (peer.fingerprint != ours.fingerprint)
        return fail(
            "model fingerprint mismatch: peer '" +
            peer.fingerprint + "' vs local '" + ours.fingerprint +
            "' (different model version, struct shapes, or "
            "extension registrations)");
    return true;
}

} // namespace specsec::serve
