/**
 * @file
 * Client side of the campaign service: a handshaked connection
 * that can run a ScenarioSpec against the daemon through the same
 * OutcomeSink interface CampaignEngine::run drives locally.
 *
 * The client owns the grid: it expands and deduplicates the spec
 * itself and submits only the unique canonical scenarioKey()s, so
 * the daemon is spec-agnostic (arbitrary defense lambdas never
 * cross the wire) and every remote run is byte-identical — in
 * every timing-free export — to the offline path by construction:
 * the sinks see the identical header and identical outcomes, only
 * the executions happen elsewhere.
 *
 * Resume: planJsonlResume() validates a killed run's JSONL file
 * (header byte-compared against what this spec would write, then
 * the longest prefix of outcome lines in grid order), and
 * Client::runSubset() executes only the still-missing grid
 * indices, appending through a header-suppressed JsonlStreamSink.
 */

#ifndef SPECSEC_SERVE_CLIENT_HH
#define SPECSEC_SERVE_CLIENT_HH

#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sink.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"

namespace specsec::serve
{

class Client
{
  public:
    /** Dial + handshake; false with a reason (including server-
     *  side handshake rejections, verbatim). */
    bool connect(const net::Endpoint &endpoint,
                 std::string *error = nullptr);

    /** The daemon's worker-pool size, from its hello. */
    unsigned serverWorkers() const { return serverWorkers_; }

    /**
     * Remote CampaignEngine::run: same sink contract, same bytes.
     * @return false (sinks may have seen begin/partial consumes)
     * when the connection tears or the server rejects the batch.
     */
    bool run(const campaign::ScenarioSpec &spec,
             const std::vector<campaign::OutcomeSink *> &sinks,
             campaign::ShardRange shard = {},
             std::string *error = nullptr);

    /**
     * Run only @p expandedIndices (ascending positions into
     * @p grid.expanded) of an already-expanded spec — the resume
     * path.  Sinks' begin() announces exactly those indices.
     */
    bool runSubset(
        const campaign::ExpandedGrid &grid,
        const campaign::CampaignHeader &header,
        const std::vector<std::size_t> &expandedIndices,
        const std::vector<campaign::OutcomeSink *> &sinks,
        std::string *error = nullptr);

    bool serverStats(StatsMsg &stats,
                     std::string *error = nullptr);

    /** Ask the daemon to drain and exit. */
    bool requestShutdown(std::string *error = nullptr);

    void close() { conn_.close(); }

  private:
    net::Conn conn_;
    unsigned serverWorkers_ = 0;
};

/** What survives of a killed run's JSONL export. */
struct ResumePlan
{
    /// Header + the longest valid outcome prefix, exactly the
    /// bytes to keep (a truncated tail line is dropped).
    std::string keepText;
    /// Outcome lines kept (gridIndices[0..covered) are done).
    std::size_t covered = 0;
    /// Expanded grid indices still missing, ascending.
    std::vector<std::size_t> missing;
};

/**
 * Plan a resume of @p header's run from the bytes of its killed
 * JSONL export (timing-free runs only — timing output embeds a
 * summary line and machine-local wall times).  The header line
 * must match @p header byte-for-byte; outcome lines must follow
 * the announced grid order.  @return false when the file cannot
 * belong to this run (wrong spec, reordered lines) — resuming
 * would then corrupt the export.  An empty/absent file is a valid
 * plan covering nothing.
 */
bool planJsonlResume(const campaign::CampaignHeader &header,
                     const std::string &existingText,
                     ResumePlan &plan,
                     std::string *error = nullptr);

} // namespace specsec::serve

#endif // SPECSEC_SERVE_CLIENT_HH
