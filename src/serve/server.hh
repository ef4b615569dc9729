/**
 * @file
 * The campaign daemon: one process owning one ResultCache, serving
 * scenario-execution batches to any number of concurrent clients
 * over the line-delimited JSON protocol (src/serve/protocol.hh).
 * Only the daemon's own executions write its cache.
 *
 * Each accepted connection gets its own thread; a submit is a
 * CampaignEngine run of its keys' grid (campaign::gridFromKeys)
 * under the differential backend, so every served cell is also
 * judged by the analytic model, and a result-line sink streams each
 * outcome back as it completes.  Several clients' batches run at
 * once and every execution lands in the one shared cache.  A client
 * that disconnects mid-stream cancels only its own batch (the sink's
 * failed write throws, which stops the engine's pool); the daemon
 * and every other connection stay healthy.  The stats counters add
 * each completed run's footer; a cancelled or refused submit counts
 * only as a request.
 *
 * With a --cache-file the cache is loaded at start and re-saved
 * (load-merge-save under the lock file, see persist.cc) after
 * every batch that added entries to it, and at shutdown, so even a
 * killed daemon loses at most the batch in flight.  A batch served
 * entirely from the cache leaves the file alone.
 */

#ifndef SPECSEC_SERVE_SERVER_HH
#define SPECSEC_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"

namespace specsec::serve
{

class Server
{
  public:
    struct Options
    {
        std::string host = "127.0.0.1";
        std::uint16_t port = 0; ///< 0 = ephemeral; read back port()
        /// Worker threads per submit batch; 0 = all cores.
        unsigned workers = 0;
        /// Optional persistent cache (load at start, save after a
        /// batch that added entries, and at shutdown).
        std::string cachePath;
    };

    explicit Server(Options options) : options_(std::move(options))
    {
    }
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + load the cache; false with a reason. */
    bool start(std::string *error = nullptr);

    /** The bound port (after start()). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Accept-and-serve until stop() or a client's shutdown
     * message.  Blocks; run it on a dedicated thread for
     * in-process use (tests), or directly from main() for the
     * CLI daemon.
     */
    void serveForever();

    /** Signal serveForever() to drain and return. */
    void stop();

    /** Live counters (also served over the wire as stats{}). */
    StatsMsg stats() const;

    const campaign::ResultCache &cache() const { return cache_; }

  private:
    void handleConnection(std::shared_ptr<net::Conn> conn);
    bool handleSubmit(net::Conn &conn, const SubmitMsg &submit);
    /**
     * Save the cache to the cache file when it gained entries since
     * its last save, or always when @p always (shutdown).
     */
    void saveCache(bool always = false);

    Options options_;
    net::Listener listener_;
    campaign::ResultCache cache_;
    std::string fingerprint_;
    std::atomic<bool> stopping_{false};

    mutable std::mutex mutex_; ///< guards conns_/threads_/stats_
    std::vector<std::weak_ptr<net::Conn>> conns_;
    std::vector<std::thread> threads_;
    /// Every counter but cacheSize, which stats() reads from cache_.
    StatsMsg stats_;

    std::mutex saveMutex_;      ///< serializes saveCache()
    std::size_t savedSize_ = 0; ///< cache_.size() at the last save
};

} // namespace specsec::serve

#endif // SPECSEC_SERVE_SERVER_HH
