#include "client.hh"

#include <utility>

#include "tool/stream_export.hh"

namespace specsec::serve
{

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

bool
Client::connect(const net::Endpoint &endpoint, std::string *error)
{
    conn_ = net::dial(endpoint, error);
    if (!conn_.valid())
        return false;
    if (!conn_.writeLine(helloLine(localHello(), false)))
        return fail(error, "connection lost during handshake");
    std::string line;
    if (!conn_.readLine(line))
        return fail(error, "server closed during handshake");
    const ParsedMsg reply = parseLine(line);
    if (reply.type == MsgType::Error)
        return fail(error, reply.error);
    if (reply.type != MsgType::Hello)
        return fail(error, "handshake failed: unexpected reply");
    std::string mismatch;
    if (!checkHello(reply.hello, &mismatch))
        return fail(error, "handshake rejected: " + mismatch);
    serverWorkers_ =
        reply.hello.workers == 0 ? 1 : reply.hello.workers;
    return true;
}

bool
Client::run(const campaign::ScenarioSpec &spec,
            const std::vector<campaign::OutcomeSink *> &sinks,
            campaign::ShardRange shard, std::string *error)
{
    const campaign::ExpandedGrid grid = campaign::dedupGrid(spec);
    const campaign::CampaignHeader header =
        campaign::runHeader(spec, grid, shard, serverWorkers_);
    return runSubset(grid, header, header.gridIndices, sinks,
                     error);
}

bool
Client::runSubset(
    const campaign::ExpandedGrid &grid,
    const campaign::CampaignHeader &header,
    const std::vector<std::size_t> &expandedIndices,
    const std::vector<campaign::OutcomeSink *> &sinks,
    std::string *error)
{
    if (!conn_.valid())
        return fail(error, "not connected");

    // The unique executions backing the wanted grid points, in the
    // order their keys are submitted.
    const campaign::OutcomeFanOut fanOut(grid, expandedIndices, sinks);
    SubmitMsg submit;
    submit.name = header.name;
    for (std::size_t n = 0; n < fanOut.size(); ++n)
        submit.keys.push_back(fanOut.scenario(n).key);

    for (campaign::OutcomeSink *sink : sinks)
        sink->begin(header);

    if (!conn_.writeLine(submitLine(submit)))
        return fail(error, "connection lost sending submit");

    // One result per submitted key: a repeated index would stand in
    // for a key the server never answered.
    std::vector<bool> answered(fanOut.size(), false);
    std::size_t received = 0;
    std::string line;
    while (conn_.readLine(line)) {
        const ParsedMsg msg = parseLine(line);
        if (msg.type == MsgType::Error)
            return fail(error, "server: " + msg.error);
        if (msg.type == MsgType::Done) {
            if (received != submit.keys.size())
                return fail(error,
                            "server finished early: " +
                                std::to_string(received) + " of " +
                                std::to_string(
                                    submit.keys.size()) +
                                " results");
            campaign::CampaignFooter footer;
            footer.executedCount = msg.done.executed;
            footer.cacheHits = msg.done.cacheHits;
            footer.wallMillis = msg.done.wallMillis;
            for (campaign::OutcomeSink *sink : sinks)
                sink->end(footer);
            return true;
        }
        if (msg.type != MsgType::Result)
            return fail(error,
                        "unexpected mid-stream message: " +
                            (msg.type == MsgType::Invalid
                                 ? msg.error
                                 : line));
        if (msg.result.index >= fanOut.size())
            return fail(error, "result index out of range");
        if (answered[msg.result.index])
            return fail(error, "duplicate result index " +
                                   std::to_string(msg.result.index));
        answered[msg.result.index] = true;
        ++received;
        campaign::ScenarioOutcome o;
        o.result = msg.result.result;
        o.stats = msg.result.stats;
        o.wallMillis = msg.result.wallMillis;
        fanOut.emit(msg.result.index, std::move(o));
    }
    return fail(error, "connection lost mid-stream");
}

bool
Client::serverStats(StatsMsg &stats, std::string *error)
{
    if (!conn_.writeLine(statsRequestLine()))
        return fail(error, "connection lost");
    std::string line;
    if (!conn_.readLine(line))
        return fail(error, "connection lost");
    const ParsedMsg msg = parseLine(line);
    if (msg.type == MsgType::Error)
        return fail(error, "server: " + msg.error);
    if (msg.type != MsgType::Stats)
        return fail(error, "unexpected stats reply");
    stats = msg.stats;
    return true;
}

bool
Client::requestShutdown(std::string *error)
{
    if (!conn_.writeLine(shutdownLine()))
        return fail(error, "connection lost");
    std::string line;
    if (!conn_.readLine(line))
        return fail(error, "connection lost");
    const ParsedMsg msg = parseLine(line);
    if (msg.type == MsgType::Error)
        return fail(error, "server: " + msg.error);
    if (msg.type != MsgType::Ok)
        return fail(error, "unexpected shutdown reply");
    return true;
}

bool
planJsonlResume(const campaign::CampaignHeader &header,
                const std::string &existingText, ResumePlan &plan,
                std::string *error)
{
    plan = ResumePlan();
    plan.missing = header.gridIndices;
    if (existingText.empty())
        return true; // nothing survived; a fresh run is the plan

    const std::string expected_header =
        tool::jsonlHeaderRecord(header);
    if (existingText.size() < expected_header.size() ||
        existingText.compare(0, expected_header.size(),
                             expected_header) != 0) {
        // A complete-but-different header is another run's file —
        // resuming over it would corrupt that export.  A single
        // newline-less line is ambiguous: a writer killed
        // mid-header (torn header) vs. a file that simply isn't
        // ours.  Disambiguate by prefix: a torn line that matches
        // the start of *this* run's header (including the edge
        // case of the full header with the trailing newline still
        // unwritten) is an empty run — resume from scratch with
        // zero kept outcomes.  Anything else is another run's torn
        // line; refuse rather than silently overwrite it.
        if (existingText.find('\n') == std::string::npos) {
            if (expected_header.compare(0, existingText.size(),
                                        existingText) == 0)
                return true;
            return fail(error,
                        "existing JSONL is a torn line from a "
                        "different run; refusing to resume over "
                        "it");
        }
        return fail(error,
                    "existing JSONL header does not match this "
                    "spec/shard; refusing to resume over it");
    }

    plan.keepText = expected_header;
    std::size_t pos = expected_header.size();
    while (plan.covered < header.gridIndices.size()) {
        const std::size_t nl = existingText.find('\n', pos);
        if (nl == std::string::npos)
            break; // torn tail line: drop it, re-fetch that cell
        const std::string line =
            existingText.substr(pos, nl + 1 - pos);
        // Outcome lines open with their gridIndex (the record's
        // first column); the prefix is valid exactly while
        // the indices follow the announced grid order.
        const std::string want =
            "{\"type\": \"outcome\", \"record\": {\"gridIndex\": " +
            std::to_string(header.gridIndices[plan.covered]) +
            ", ";
        if (line.compare(0, want.size(), want) != 0)
            return fail(error,
                        "existing JSONL line " +
                            std::to_string(plan.covered + 1) +
                            " is not the expected outcome for "
                            "gridIndex " +
                            std::to_string(
                                header.gridIndices[plan.covered]) +
                            "; refusing to resume");
        plan.keepText += line;
        ++plan.covered;
        pos = nl + 1;
    }
    if (plan.covered == header.gridIndices.size() &&
        pos < existingText.size())
        return fail(error,
                    "existing JSONL has trailing bytes after a "
                    "complete run; nothing to resume");
    plan.missing.assign(header.gridIndices.begin() +
                            static_cast<std::ptrdiff_t>(
                                plan.covered),
                        header.gridIndices.end());
    return true;
}

} // namespace specsec::serve
