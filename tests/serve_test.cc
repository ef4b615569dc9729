/**
 * @file
 * Tests for the campaign service: an in-process daemon on an
 * ephemeral port serving a real Client.  Covers the handshake
 * (including schema/fingerprint rejection), remote-vs-offline
 * byte identity through the sink contract, the shared cache (warm
 * second submit), protocol robustness (malformed, truncated and
 * removed request lines answered with error{} on a surviving
 * connection; a client vanishing mid-stream leaving the daemon
 * healthy), and the JSONL resume planner's accept/trim/refuse
 * cases.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <random>
#include <thread>

#include <sys/socket.h>

#include "campaign/campaign.hh"
#include "campaign/sink.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "tool/report.hh"
#include "tool/stream_export.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;
using core::AttackVariant;

ScenarioSpec
sampleSpec()
{
    ScenarioSpec spec;
    spec.name = "serve-sample";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};
    spec.defenses = {{"baseline", nullptr},
                     {"fence(1)",
                      [](CpuConfig &c, AttackOptions &) {
                          c.defense.fenceSpeculativeLoads = true;
                      }}};
    spec.permCheckLatencies = {10, 30};
    return spec;
}

/** An in-process daemon: started on construction, drained on
 *  destruction.  Tests talk to endpoint(). */
class TestServer
{
  public:
    explicit TestServer(serve::Server::Options options = {})
        : server_(std::move(options))
    {
        std::string error;
        started_ = server_.start(&error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            thread_ = std::thread([this] {
                server_.serveForever();
            });
    }
    ~TestServer()
    {
        server_.stop();
        if (thread_.joinable())
            thread_.join();
    }

    serve::net::Endpoint endpoint() const
    {
        return {"127.0.0.1", server_.port()};
    }
    serve::Server &server() { return server_; }

  private:
    serve::Server server_;
    bool started_ = false;
    std::thread thread_;
};

/** Dial the daemon and complete a valid handshake on a raw
 *  connection, for tests that speak the wire format directly. */
serve::net::Conn
rawHandshaked(const serve::net::Endpoint &endpoint)
{
    std::string error;
    serve::net::Conn conn = serve::net::dial(endpoint, &error);
    EXPECT_TRUE(conn.valid()) << error;
    EXPECT_TRUE(conn.writeLine(
        serve::helloLine(serve::localHello(), false)));
    std::string line;
    EXPECT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Hello);
    return conn;
}

/**
 * Well-formed keys no runner can execute: @p good with variant id
 * 999, and a ROB past std::vector::max_size() (its Cpu throws
 * std::length_error; a merely huge one would throw bad_alloc, but
 * the sanitizer allocators abort on that instead).
 */
std::vector<std::string>
unrunnableKeys(const std::string &good)
{
    CpuConfig hugeRob;
    hugeRob.robSize = std::numeric_limits<std::size_t>::max();
    return {"999" + good.substr(good.find(';')),
            scenarioKey(AttackVariant::Meltdown, hugeRob,
                        AttackOptions{})};
}

TEST(Serve, RemoteRunMatchesOfflineAndSecondRunIsAllCacheHits)
{
    const ScenarioSpec spec = sampleSpec();

    CampaignEngine::Options opts;
    opts.workers = 2;
    const CampaignReport offline =
        CampaignEngine(opts).run(spec);

    TestServer daemon;
    serve::Client client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.endpoint(), &error))
        << error;
    EXPECT_GE(client.serverWorkers(), 1u);

    ReportSink sink;
    ASSERT_TRUE(client.run(spec, {&sink}, {}, &error)) << error;
    const CampaignReport remote = sink.takeReport();

    // Byte identity with the offline engine in every timing-free
    // export — the acceptance bar for the whole subsystem.
    EXPECT_EQ(tool::campaignJson(remote, false),
              tool::campaignJson(offline, false));
    EXPECT_EQ(tool::campaignCsv(remote, false),
              tool::campaignCsv(offline, false));
    EXPECT_EQ(tool::campaignJsonl(remote, false),
              tool::campaignJsonl(offline, false));
    EXPECT_EQ(remote.executedCount, offline.uniqueCount);

    // A second client re-running the same spec must come entirely
    // out of the daemon's shared cache: zero re-executions.
    serve::Client second;
    ASSERT_TRUE(second.connect(daemon.endpoint(), &error))
        << error;
    ReportSink warmSink;
    ASSERT_TRUE(second.run(spec, {&warmSink}, {}, &error))
        << error;
    const CampaignReport warm = warmSink.takeReport();
    EXPECT_EQ(warm.executedCount, 0u);
    EXPECT_EQ(warm.cacheHits, warm.uniqueCount);
    EXPECT_EQ(tool::campaignJson(warm, false),
              tool::campaignJson(offline, false));

    const serve::StatsMsg stats = daemon.server().stats();
    EXPECT_EQ(stats.connections, 2u);
    EXPECT_EQ(stats.executed, offline.uniqueCount);
    EXPECT_EQ(stats.cacheHits, warm.uniqueCount);
}

TEST(Serve, HandshakeRejectsMismatchedSchemaOrFingerprint)
{
    TestServer daemon;

    serve::HelloMsg doctored = serve::localHello();
    doctored.schema += "-drifted";
    std::string error;
    serve::net::Conn conn =
        serve::net::dial(daemon.endpoint(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(
        conn.writeLine(serve::helloLine(doctored, false)));
    std::string line;
    ASSERT_TRUE(conn.readLine(line));
    serve::ParsedMsg reply = serve::parseLine(line);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    EXPECT_NE(reply.error.find("handshake rejected"),
              std::string::npos)
        << reply.error;
    EXPECT_NE(reply.error.find("schema tag mismatch"),
              std::string::npos)
        << reply.error;
    // The daemon drops a connection it refused to handshake.
    EXPECT_FALSE(conn.readLine(line));

    // Client::connect surfaces the same rejection as its error.
    // (Cannot doctor a Client's hello from here, but a fingerprint
    // mismatch takes the identical path; exercise the non-hello
    // first message instead: it must be rejected, not served.)
    serve::net::Conn eager =
        serve::net::dial(daemon.endpoint(), &error);
    ASSERT_TRUE(eager.valid()) << error;
    ASSERT_TRUE(eager.writeLine(serve::statsRequestLine()));
    ASSERT_TRUE(eager.readLine(line));
    reply = serve::parseLine(line);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    EXPECT_FALSE(eager.readLine(line));

    // A peer one protocol revision behind is refused by version.
    serve::HelloMsg stale = serve::localHello();
    stale.protocol = serve::kProtocolVersion - 1;
    serve::net::Conn old = serve::net::dial(daemon.endpoint(), &error);
    ASSERT_TRUE(old.valid()) << error;
    ASSERT_TRUE(old.writeLine(serve::helloLine(stale, false)));
    ASSERT_TRUE(old.readLine(line));
    reply = serve::parseLine(line);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    EXPECT_NE(reply.error.find("protocol version mismatch"),
              std::string::npos)
        << reply.error;
    EXPECT_FALSE(old.readLine(line));

    // A protocol number equal to ours only modulo 2^32 is out of
    // range, not our version: the handshake fails to parse.
    std::string wrapped = serve::helloLine(serve::localHello(), false);
    const std::string current =
        "\"protocol\": " + std::to_string(serve::kProtocolVersion);
    const std::size_t at = wrapped.find(current);
    ASSERT_NE(at, std::string::npos) << wrapped;
    wrapped.replace(at, current.size(),
                    "\"protocol\": " +
                        std::to_string((std::uint64_t{1} << 32) +
                                       serve::kProtocolVersion));
    serve::net::Conn wide = serve::net::dial(daemon.endpoint(), &error);
    ASSERT_TRUE(wide.valid()) << error;
    ASSERT_TRUE(wide.writeLine(wrapped));
    ASSERT_TRUE(wide.readLine(line));
    reply = serve::parseLine(line);
    ASSERT_EQ(reply.type, serve::MsgType::Error) << line;
    EXPECT_NE(reply.error.find("handshake failed: integer out of range"),
              std::string::npos)
        << reply.error;
    EXPECT_FALSE(wide.readLine(line));

    // And a well-formed client still connects fine afterwards.
    serve::Client ok;
    EXPECT_TRUE(ok.connect(daemon.endpoint(), &error)) << error;
}

TEST(Serve, StatsLineRoundTripsEveryField)
{
    using serve::kStatsFields;
    constexpr std::size_t kCount = std::size(kStatsFields);
#if defined(__x86_64__) && defined(__linux__)
    static_assert(sizeof(serve::StatsMsg) == kCount * sizeof(std::size_t),
                  "StatsMsg member missing from serve::kStatsFields");
#endif
    serve::StatsMsg sent;
    for (std::size_t i = 0; i < kCount; ++i)
        sent.*kStatsFields[i].member = i + 1;
    const std::string line = serve::statsLine(sent);
    const serve::ParsedMsg got = serve::parseLine(line);
    ASSERT_EQ(got.type, serve::MsgType::Stats) << got.error;
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(got.stats.*kStatsFields[i].member, i + 1)
            << kStatsFields[i].name;

    // A v5 stats line still carries the scenario-fork counters; the
    // strict parser refuses it rather than skipping keys.
    std::string v5 = line;
    const std::string anchor = "\"cacheSize\": 5";
    const std::size_t at = v5.find(anchor);
    ASSERT_NE(at, std::string::npos) << v5;
    v5.insert(at + anchor.size(), ", \"forked\": 0, \"rebuilt\": 0, "
                                  "\"pooledArenas\": 0");
    EXPECT_EQ(serve::parseLine(v5).type, serve::MsgType::Invalid);
}

TEST(Serve, ParseLineSurvivesMutationFuzz)
{
    // One valid line of every message type.
    serve::HelloMsg hello = serve::localHello();
    hello.workers = 4;
    serve::ResultMsg result;
    result.index = 7;
    result.cached = true;
    result.wallMillis = 0.125;
    result.result = attacks::scoreResult("spectre-v1", {83, -1, 67},
                                         {83, 69, 67}, 1234, 5);
    result.stats.cycles = 1234;
    result.stats.committed = 99;
    result.stats.transientForwards = 5;
    serve::DoneMsg done;
    done.executed = 3;
    done.cacheHits = 2;
    done.wallMillis = 1.5;
    serve::StatsMsg stats;
    stats.requests = 12;
    stats.modelDisagreements = 1;
    const std::vector<std::string> seeds = {
        serve::helloLine(hello, true),
        serve::submitLine({"fuzz", {"key-a", "key \"b\"\n"}}),
        serve::resultLine(result),
        serve::doneLine(done),
        serve::okLine(0),
        serve::statsRequestLine(),
        serve::statsLine(stats),
        serve::shutdownLine(),
        serve::errorLine("boom: \"quoted\" \\ tail"),
    };

    std::size_t invalid = 0;
    const auto check = [&invalid](const std::string &line) {
        serve::ParsedMsg msg;
        ASSERT_NO_THROW(msg = serve::parseLine(line)) << line;
        if (msg.type == serve::MsgType::Invalid) {
            ++invalid;
            EXPECT_FALSE(msg.error.empty()) << line;
        }
    };

    const std::string structural = "{}[]\",:\\";
    std::mt19937 rng(20261017);
    for (const std::string &seed : seeds) {
        ASSERT_NE(serve::parseLine(seed).type, serve::MsgType::Invalid)
            << seed;
        for (std::size_t cut = 0; cut < seed.size(); ++cut)
            check(seed.substr(0, cut));
        for (int round = 0; round < 2000; ++round) {
            std::string line = seed;
            const int edits = 1 + static_cast<int>(rng() % 3);
            for (int e = 0; e < edits && !line.empty(); ++e) {
                const std::size_t at = rng() % line.size();
                switch (rng() % 4) {
                  case 0:
                    line[at] = static_cast<char>(
                        line[at] ^ (1 << (rng() % 8)));
                    break;
                  case 1:
                    line.erase(at, 1);
                    break;
                  case 2:
                    line.insert(at, 1,
                                structural[rng() % structural.size()]);
                    break;
                  default:
                    line.insert(at, std::string(25, '9'));
                    break;
                }
            }
            check(line);
        }
    }
    // Most mutants must be refused; an all-accepting parser would
    // pass the checks above vacuously.
    EXPECT_GT(invalid, seeds.size() * 1000);
}

TEST(Serve, MalformedRequestGetsErrorAndConnectionSurvives)
{
    TestServer daemon;
    serve::net::Conn conn = rawHandshaked(daemon.endpoint());
    std::string line;

    // Not JSON at all.
    ASSERT_TRUE(conn.writeLine("this is not a message"));
    ASSERT_TRUE(conn.readLine(line));
    serve::ParsedMsg reply = serve::parseLine(line);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    EXPECT_NE(reply.error.find("bad request"), std::string::npos)
        << reply.error;

    // Truncated mid-object: well-formed prefix, torn tail.
    ASSERT_TRUE(
        conn.writeLine("{\"type\": \"submit\", \"name\": \"x\""));
    ASSERT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Error);

    // Unknown type tags, including protocol v4's cache side channel:
    // only the daemon's own runs write its cache.
    for (const char *request :
         {"{\"type\": \"frobnicate\"}",
          "{\"type\": \"cache-get\", \"keys\": []}",
          "{\"type\": \"cache-put\", \"entries\": []}"}) {
        ASSERT_TRUE(conn.writeLine(request));
        ASSERT_TRUE(conn.readLine(line));
        reply = serve::parseLine(line);
        EXPECT_EQ(reply.type, serve::MsgType::Error);
        EXPECT_NE(reply.error.find("unknown message type"),
                  std::string::npos)
            << reply.error;
    }

    // The same connection still serves real requests afterwards.
    ASSERT_TRUE(conn.writeLine(serve::statsRequestLine()));
    ASSERT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Stats);

    // A submit with an unparseable key is rejected as a batch —
    // with the offending index named — and the connection lives.
    serve::SubmitMsg bad;
    bad.name = "bad-batch";
    bad.keys = {"not-a-scenario-key"};
    ASSERT_TRUE(conn.writeLine(serve::submitLine(bad)));
    ASSERT_TRUE(conn.readLine(line));
    reply = serve::parseLine(line);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    EXPECT_NE(reply.error.find("index 0"), std::string::npos)
        << reply.error;
    ASSERT_TRUE(conn.writeLine(serve::statsRequestLine()));
    ASSERT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Stats);
}

TEST(Serve, ClientDisconnectMidStreamLeavesServerHealthy)
{
    const ScenarioSpec spec = sampleSpec();
    const ExpandedGrid grid = dedupGrid(spec);

    TestServer daemon;
    {
        // Submit the full batch, then vanish without reading a
        // single result: the daemon's writes start failing and
        // must cancel only this batch.
        serve::net::Conn conn =
            rawHandshaked(daemon.endpoint());
        serve::SubmitMsg submit;
        submit.name = spec.name;
        for (std::size_t u : grid.uniqueIndices)
            submit.keys.push_back(grid.expanded[u].key);
        ASSERT_TRUE(conn.writeLine(serve::submitLine(submit)));
        conn.close();
    }

    // The daemon still serves a full, correct run afterwards.
    serve::Client client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.endpoint(), &error))
        << error;
    ReportSink sink;
    ASSERT_TRUE(client.run(spec, {&sink}, {}, &error)) << error;
    const CampaignReport report = sink.takeReport();
    EXPECT_EQ(report.outcomes.size(), report.expandedCount);
    EXPECT_EQ(report.executedCount + report.cacheHits,
              report.uniqueCount);
}

TEST(Serve, WriteLineCompletesAcrossForcedPartialWrites)
{
    // writeLine's contract is all-or-error: a frame larger than
    // the kernel send buffer must still arrive whole.  Shrink the
    // writer's SO_SNDBUF to the kernel minimum so a megabyte line
    // cannot possibly clear in one send() — each call accepts only
    // the few KB of free buffer, forcing the short-write path in
    // Conn::writeLine — then prove framing survives.  (Only the
    // send side is shrunk: a tiny *receive* window would serialize
    // the transfer on delayed-ACK round trips.)
    serve::net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.listenOn({"127.0.0.1", 0}, &error))
        << error;
    serve::net::Conn writer =
        serve::net::dial({"127.0.0.1", listener.port()}, &error);
    ASSERT_TRUE(writer.valid()) << error;
    serve::net::Conn reader = listener.acceptOne(2000);
    ASSERT_TRUE(reader.valid());

    const int tiny = 1; // the kernel clamps this to its floor
    ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF,
                           &tiny, sizeof tiny),
              0);

    std::string payload(1 << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>('a' + i % 26);

    // The reader must drain concurrently or the blocking writer
    // would deadlock against the shrunken buffers.
    std::string got;
    bool readOk = false;
    std::thread rx([&] { readOk = reader.readLine(got); });
    EXPECT_TRUE(writer.writeLine(payload));
    rx.join();
    ASSERT_TRUE(readOk);
    EXPECT_EQ(got, payload);

    // Framing is intact afterwards: a follow-up line arrives
    // exactly, with no bytes lost or duplicated at the seams.
    ASSERT_TRUE(writer.writeLine("tail"));
    std::string tail;
    ASSERT_TRUE(reader.readLine(tail));
    EXPECT_EQ(tail, "tail");
}

TEST(Serve, ResumePlanDisambiguatesTornHeaders)
{
    const ScenarioSpec spec = sampleSpec();
    const ExpandedGrid grid = dedupGrid(spec);
    const CampaignHeader header =
        serve::headerForGrid(spec, grid, {}, 2);
    const std::string headerLine = tool::jsonlHeaderRecord(header);

    // A file ending exactly after the header, trailing newline
    // still unwritten: the writer died between the record and its
    // '\n'.  That is an empty run — resume with zero kept
    // outcomes, not a refusal.
    serve::ResumePlan plan;
    std::string error;
    ASSERT_TRUE(serve::planJsonlResume(
        header, headerLine.substr(0, headerLine.size() - 1), plan,
        &error))
        << error;
    EXPECT_EQ(plan.covered, 0u);
    EXPECT_EQ(plan.missing.size(), grid.expanded.size());
    EXPECT_TRUE(plan.keepText.empty());

    // Any shorter torn prefix of our own header resumes the same
    // way.
    ASSERT_TRUE(serve::planJsonlResume(
        header, headerLine.substr(0, 10), plan, &error))
        << error;
    EXPECT_EQ(plan.covered, 0u);
    EXPECT_EQ(plan.missing.size(), grid.expanded.size());

    // A newline-less line that is NOT a prefix of this run's
    // header is some other run's torn file: refuse rather than
    // silently overwrite it.
    EXPECT_FALSE(serve::planJsonlResume(
        header, "{\"type\": \"header\", \"name\": \"alien", plan,
        &error));
    EXPECT_NE(error.find("torn line"), std::string::npos) << error;
}

TEST(Serve, ResumePlanAcceptsTrimsAndRefuses)
{
    const ScenarioSpec spec = sampleSpec();
    const ExpandedGrid grid = dedupGrid(spec);
    const CampaignHeader header =
        serve::headerForGrid(spec, grid, {}, 2);

    // A complete timing-free export of the run, line-addressable.
    CampaignEngine::Options opts;
    opts.workers = 1;
    const CampaignReport report = CampaignEngine(opts).run(spec);
    const std::string full = tool::campaignJsonl(report, false);

    // Empty file: fresh plan, everything missing.
    serve::ResumePlan plan;
    std::string error;
    ASSERT_TRUE(serve::planJsonlResume(header, "", plan, &error))
        << error;
    EXPECT_EQ(plan.covered, 0u);
    EXPECT_EQ(plan.missing.size(), grid.expanded.size());
    EXPECT_TRUE(plan.keepText.empty());

    // The complete file: nothing missing, every byte kept.
    ASSERT_TRUE(
        serve::planJsonlResume(header, full, plan, &error))
        << error;
    EXPECT_EQ(plan.covered, grid.expanded.size());
    EXPECT_TRUE(plan.missing.empty());
    EXPECT_EQ(plan.keepText, full);

    // Killed mid-write: keep the valid prefix (header + 3 whole
    // outcome lines), drop the torn fourth, plan the rest.
    std::size_t pos = 0;
    for (int lines = 0; lines < 4; ++lines)
        pos = full.find('\n', pos) + 1;
    const std::string torn = full.substr(0, pos + 7);
    ASSERT_TRUE(
        serve::planJsonlResume(header, torn, plan, &error))
        << error;
    EXPECT_EQ(plan.covered, 3u);
    EXPECT_EQ(plan.keepText, full.substr(0, pos));
    ASSERT_EQ(plan.missing.size(), grid.expanded.size() - 3);
    EXPECT_EQ(plan.missing.front(), header.gridIndices[3]);

    // A file from a different run must be refused, not resumed
    // over: here, the same bytes against a renamed spec.
    ScenarioSpec other = spec;
    other.name = "serve-sample-other";
    const ExpandedGrid otherGrid = dedupGrid(other);
    const CampaignHeader otherHeader =
        serve::headerForGrid(other, otherGrid, {}, 2);
    EXPECT_FALSE(serve::planJsonlResume(otherHeader, full, plan,
                                        &error));
    EXPECT_NE(error.find("refusing to resume"),
              std::string::npos)
        << error;
}

TEST(Serve, ExecuteKeyBatchNamesTheMalformedKey)
{
    const ScenarioSpec spec = sampleSpec();
    const ExpandedGrid grid = dedupGrid(spec);

    std::vector<std::string> keys = {
        grid.expanded[grid.uniqueIndices.front()].key,
        "definitely-not-a-key"};
    std::string error;
    const bool ok = executeKeyBatch(
        keys, 1, nullptr,
        [](std::size_t, const KeyBatchItem &) { return true; },
        &error);
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("index 1"), std::string::npos) << error;

    // The valid key alone executes, emitting exactly once.
    std::size_t emitted = 0;
    keys.pop_back();
    EXPECT_TRUE(executeKeyBatch(
        keys, 1, nullptr,
        [&](std::size_t index, const KeyBatchItem &item) {
            EXPECT_EQ(index, 0u);
            EXPECT_FALSE(item.cached);
            ++emitted;
            return true;
        },
        &error))
        << error;
    EXPECT_EQ(emitted, 1u);

    // Well-formed keys that cannot run fail the batch too, naming
    // the key, whether the parser or the runner refuses them.
    for (const std::string &bad : unrunnableKeys(keys.front())) {
        for (const unsigned workers : {1u, 4u}) {
            error.clear();
            EXPECT_FALSE(executeKeyBatch(
                {keys.front(), bad}, workers, nullptr,
                [](std::size_t, const KeyBatchItem &) { return true; },
                &error));
            EXPECT_NE(error.find("index 1"), std::string::npos)
                << error;
        }
    }
}

TEST(Serve, ZeroCacheDimensionKeyIsRejectedNotExecuted)
{
    // A well-formed key naming a cache the simulator cannot build
    // (0 sets, 0 ways) must fail its batch up front, in-process and
    // over the wire, before any worker constructs that cache.
    CpuConfig zeroSets;
    zeroSets.cache.sets = 0;
    CpuConfig zeroWays;
    zeroWays.cache.ways = 0;
    const std::string good = scenarioKey(
        AttackVariant::Meltdown, CpuConfig{}, AttackOptions{});
    for (const CpuConfig &bad : {zeroSets, zeroWays}) {
        const std::string key =
            scenarioKey(AttackVariant::Meltdown, bad, AttackOptions{});
        std::string error;
        std::size_t emitted = 0;
        EXPECT_FALSE(executeKeyBatch(
            {good, key}, 1, nullptr,
            [&](std::size_t, const KeyBatchItem &) {
                ++emitted;
                return true;
            },
            &error));
        EXPECT_NE(error.find("index 1"), std::string::npos) << error;
        EXPECT_EQ(emitted, 0u);
    }

    TestServer daemon;
    serve::net::Conn conn = rawHandshaked(daemon.endpoint());
    serve::SubmitMsg bad;
    bad.name = "zero-sets";
    bad.keys = {scenarioKey(AttackVariant::Meltdown, zeroSets,
                            AttackOptions{})};
    ASSERT_TRUE(conn.writeLine(serve::submitLine(bad)));
    std::string line;
    ASSERT_TRUE(conn.readLine(line));
    const serve::ParsedMsg reply = serve::parseLine(line);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    EXPECT_NE(reply.error.find("index 0"), std::string::npos)
        << reply.error;
    // The daemon and this connection keep serving.
    ASSERT_TRUE(conn.writeLine(serve::statsRequestLine()));
    ASSERT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Stats);

    // Well-formed keys that cannot run are refused the same way,
    // and the same connection then serves a good key.
    for (const std::string &key : unrunnableKeys(good)) {
        bad.keys = {key};
        ASSERT_TRUE(conn.writeLine(serve::submitLine(bad)));
        ASSERT_TRUE(conn.readLine(line));
        const serve::ParsedMsg refused = serve::parseLine(line);
        EXPECT_EQ(refused.type, serve::MsgType::Error);
        EXPECT_NE(refused.error.find("index 0"), std::string::npos)
            << refused.error;
    }
    serve::SubmitMsg ok;
    ok.name = "good";
    ok.keys = {good};
    ASSERT_TRUE(conn.writeLine(serve::submitLine(ok)));
    ASSERT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Result);
    ASSERT_TRUE(conn.readLine(line));
    EXPECT_EQ(serve::parseLine(line).type, serve::MsgType::Done);
}

} // namespace
