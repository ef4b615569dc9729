#include "server.hh"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "campaign/sink.hh"

namespace specsec::serve
{

namespace
{

/// Thrown by ResultLineSink when its client is gone; the engine
/// stops the pool and rethrows it after the join.
struct ClientGone
{
};

/** A submit's sink: one result line per outcome, and its footer. */
class ResultLineSink : public campaign::OutcomeSink
{
  public:
    explicit ResultLineSink(net::Conn &conn) : conn_(conn) {}

    void consume(const campaign::ScenarioOutcome &outcome) override
    {
        ResultMsg msg;
        msg.index = outcome.gridIndex;
        // The engine times exactly the cells it executes.
        msg.cached = outcome.wallMillis == 0.0;
        msg.wallMillis = outcome.wallMillis;
        msg.result = outcome.result;
        msg.stats = outcome.stats;
        const std::string line = resultLine(msg);
        // One writer at a time: result lines must not interleave
        // mid-frame.  A failed write means the client is gone.
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!conn_.writeLine(line))
            throw ClientGone{};
    }

    void end(const campaign::CampaignFooter &runFooter) override
    {
        footer = runFooter;
    }

    campaign::CampaignFooter footer;

  private:
    net::Conn &conn_;
    std::mutex mutex_; ///< guards writes to conn_
};

} // namespace

Server::~Server()
{
    stop();
    // serveForever() joins its threads before returning; this
    // sweep covers the start()-but-never-served case.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        threads.swap(threads_);
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
}

bool
Server::start(std::string *error)
{
    fingerprint_ = campaign::modelFingerprint();
    if (!options_.cachePath.empty()) {
        std::string load_error;
        if (cache_.loadFromFile(options_.cachePath, fingerprint_,
                                &load_error))
            std::fprintf(stderr, "serve: loaded %zu cache entries "
                                 "from %s\n",
                         cache_.size(),
                         options_.cachePath.c_str());
        else
            std::fprintf(stderr, "serve: cold cache (%s)\n",
                         load_error.c_str());
        savedSize_ = cache_.size(); // the file holds what it loaded
    }
    net::Endpoint endpoint;
    endpoint.host = options_.host;
    endpoint.port = options_.port;
    return listener_.listenOn(endpoint, error);
}

void
Server::serveForever()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        net::Conn accepted = listener_.acceptOne(100);
        if (!accepted.valid())
            continue;
        auto conn = std::make_shared<net::Conn>(
            std::move(accepted));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.connections;
        conns_.push_back(conn);
        threads_.emplace_back(
            [this, conn] { handleConnection(conn); });
    }
    // Wake every connection thread blocked in readLine(), then
    // join them all so the daemon exits with no thread in flight.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &weak : conns_)
            if (const auto conn = weak.lock())
                conn->shutdownBoth();
        threads.swap(threads_);
        conns_.clear();
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
    saveCache(true);
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
}

StatsMsg
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatsMsg msg = stats_;
    msg.cacheSize = cache_.size();
    return msg;
}

void
Server::saveCache(bool always)
{
    if (options_.cachePath.empty())
        return;
    const std::lock_guard<std::mutex> lock(saveMutex_);
    // Entries only ever join the cache, so an unchanged size means
    // nothing to add to the file.  Read before the save: an entry
    // stored while it runs makes the next call save again.
    const std::size_t size = cache_.size();
    if (!always && size == savedSize_)
        return;
    std::string error, lockWarning;
    if (cache_.saveToFile(options_.cachePath, fingerprint_, &error,
                          &lockWarning))
        savedSize_ = size;
    else
        std::fprintf(stderr, "serve: cache save failed: %s\n",
                     error.c_str());
    if (!lockWarning.empty())
        std::fprintf(stderr, "serve: cache save degraded: %s\n",
                     lockWarning.c_str());
}

bool
Server::handleSubmit(net::Conn &conn, const SubmitMsg &submit)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }
    const auto reject = [&conn](const std::string &why) {
        conn.writeLine(errorLine("submit rejected: " + why));
        return true; // protocol error, connection still healthy
    };
    std::string error;
    const std::optional<campaign::ExpandedGrid> grid =
        campaign::gridFromKeys(submit.keys, &error);
    if (!grid)
        return reject(error);
    campaign::CampaignHeader header;
    header.name = submit.name;
    header.expandedCount = header.uniqueCount = submit.keys.size();
    header.gridIndices = grid->shard(0, 1);
    ResultLineSink sink(conn);
    try {
        campaign::CampaignEngine({options_.workers, &cache_,
                                  verdict::VerdictBackend::Differential})
            .run(*grid, header, {&sink});
    } catch (const ClientGone &) {
        saveCache(); // the cells it ran stay cached
        return false;
    } catch (const std::exception &e) {
        return reject(e.what());
    }

    const campaign::CampaignFooter &footer = sink.footer;
    DoneMsg done;
    done.executed = footer.executedCount;
    done.cacheHits = footer.cacheHits;
    done.wallMillis = footer.wallMillis;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.executed += footer.executedCount;
        stats_.cacheHits += footer.cacheHits;
        stats_.modelDecided += footer.modelDecided;
        stats_.modelUndecided += footer.modelUndecided;
        stats_.modelDisagreements += footer.disagreements;
    }
    saveCache();
    return conn.writeLine(doneLine(done));
}

void
Server::handleConnection(std::shared_ptr<net::Conn> conn)
{
    // Handshake first: anything else on a fresh connection is
    // rejected and the connection dropped, so a client built with
    // different field lists can never receive misparsable
    // result frames.
    std::string line;
    if (!conn->readLine(line))
        return;
    ParsedMsg first = parseLine(line);
    if (first.type != MsgType::Hello) {
        conn->writeLine(errorLine(
            first.type == MsgType::Invalid
                ? "handshake failed: " + first.error
                : "handshake failed: expected hello, got "
                  "something else"));
        return;
    }
    std::string mismatch;
    if (!checkHello(first.hello, &mismatch)) {
        conn->writeLine(errorLine("handshake rejected: " +
                                  mismatch));
        return;
    }
    HelloMsg reply = localHello();
    reply.workers = options_.workers != 0
                        ? options_.workers
                        : std::max(
                              1u,
                              std::thread::hardware_concurrency());
    if (!conn->writeLine(helloLine(reply, true)))
        return;

    while (conn->readLine(line)) {
        const ParsedMsg msg = parseLine(line);
        switch (msg.type) {
        case MsgType::Submit:
            if (!handleSubmit(*conn, msg.submit))
                return; // client vanished mid-stream
            break;
        case MsgType::Stats:
            if (!conn->writeLine(statsLine(stats())))
                return;
            break;
        case MsgType::Shutdown:
            conn->writeLine(okLine(0));
            stop();
            return;
        case MsgType::Invalid:
            // Malformed line: report and keep serving — a client
            // bug must not cost other clients their daemon.
            if (!conn->writeLine(errorLine("bad request: " +
                                           msg.error)))
                return;
            break;
        default:
            if (!conn->writeLine(errorLine(
                    "unexpected message type for a request")))
                return;
            break;
        }
    }
}

} // namespace specsec::serve
