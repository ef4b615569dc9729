#include "server.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "verdict/model.hh"

namespace specsec::serve
{

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

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
        ++connections_;
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
    saveCache();
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
    StatsMsg msg;
    msg.connections = connections_;
    msg.requests = requests_;
    msg.executed = executed_;
    msg.cacheHits = cacheHits_;
    msg.cacheSize = cache_.size();
    msg.modelDecided = modelDecided_;
    msg.modelUndecided = modelUndecided_;
    msg.modelDisagreements = modelDisagreements_;
    return msg;
}

void
Server::saveCache()
{
    if (options_.cachePath.empty())
        return;
    std::string error, lockWarning;
    if (!cache_.saveToFile(options_.cachePath, fingerprint_,
                           &error, &lockWarning))
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
        ++requests_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> decided{0}, undecided{0}, disagreed{0};
    std::mutex write_mutex;
    std::string batch_error;
    const bool ok = campaign::executeKeyBatch(
        submit.keys, options_.workers, &cache_,
        [&](std::size_t index,
            const campaign::KeyBatchItem &item) {
            ResultMsg msg;
            msg.index = index;
            msg.cached = item.cached;
            msg.wallMillis = item.wallMillis;
            msg.result = item.result;
            msg.stats = item.stats;
            if (item.cached)
                hits.fetch_add(1, std::memory_order_relaxed);
            // Judge every served cell with the analytic model and
            // track live agreement against the simulator verdict
            // the client is about to receive (see stats{}).
            const campaign::KeyScenario &s = *item.scenario;
            const core::ModelJudgement judged =
                verdict::judgeScenario(s.variant, s.config, s.options);
            if (!judged.decided()) {
                undecided.fetch_add(1, std::memory_order_relaxed);
            } else {
                decided.fetch_add(1, std::memory_order_relaxed);
                if (judged.predictsLeak() != item.result.leaked)
                    disagreed.fetch_add(1, std::memory_order_relaxed);
            }
            // One writer at a time: result lines must not
            // interleave mid-frame.  A failed write means the
            // client is gone; cancel the rest of the batch.
            std::lock_guard<std::mutex> lock(write_mutex);
            return conn.writeLine(resultLine(msg));
        },
        &batch_error);
    if (!ok) {
        conn.writeLine(errorLine("submit rejected: " +
                                 batch_error));
        return true; // protocol error, connection still healthy
    }

    DoneMsg done;
    done.cacheHits = hits.load(std::memory_order_relaxed);
    done.executed = submit.keys.size() - done.cacheHits;
    done.wallMillis = millisSince(t0);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        executed_ += done.executed;
        cacheHits_ += done.cacheHits;
        modelDecided_ +=
            decided.load(std::memory_order_relaxed);
        modelUndecided_ +=
            undecided.load(std::memory_order_relaxed);
        modelDisagreements_ +=
            disagreed.load(std::memory_order_relaxed);
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
