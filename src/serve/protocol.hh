/**
 * @file
 * The campaign-service wire protocol: line-delimited JSON messages
 * over one TCP connection.  Every message is a single-line JSON
 * object whose first key is "type"; the execution-result payloads
 * (AttackResult / CpuStats) travel as the same fragments shard
 * reports and the persistent cache use (tool/schema.hh), so the
 * protocol follows their field lists instead of maintaining a
 * second one.
 *
 * Session shape:
 *
 *   client                          server
 *   ------                          ------
 *   hello{protocol,schema,fp}  -->
 *                              <--  hello{protocol,schema,fp,workers}
 *   submit{name,keys[]}        -->
 *                              <--  result{index,cached,wallMillis,
 *                                          result,stats}   (xN, any order)
 *                              <--  done{executed,cacheHits,wallMillis}
 *   stats{}                    -->
 *                              <--  stats{connections,requests,...}
 *   shutdown{}                 -->
 *                              <--  ok{count:0}, then the daemon stops
 *
 * Any malformed or unexpected message yields error{message}; the
 * connection survives unless the handshake itself was rejected.
 * Results enter the daemon's shared cache only from its own
 * executions: no message stores a client-supplied result.
 * The handshake pins BOTH tool::wireSchemaTag() (field lists)
 * and campaign::modelFingerprint() (struct shapes, defaults and
 * extension-slot bindings): two binaries interoperate exactly when
 * they would also share cache files.
 *
 * Parsers accept keys strictly in the order the emitters write
 * them — both ends are this file, and strictness turns a framing
 * bug into a loud error instead of a silently-defaulted field.
 */

#ifndef SPECSEC_SERVE_PROTOCOL_HH
#define SPECSEC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/attack_kit.hh"
#include "uarch/cpu.hh"

namespace specsec::serve
{

/** Protocol revision; bumped on any message-shape change.
 *  v2: stats grew the scenario-fork and warm-snapshot counters.
 *  v3: stats grew the verdict-model agreement counters.
 *  v4: stats dropped the warm-snapshot counters with their tier.
 *  v5: cache-get / cache-entries / cache-put removed.
 *  v6: stats dropped the scenario-fork counters with the arena pool. */
inline constexpr unsigned kProtocolVersion = 6;

/** The leading "type" value of a parsed message. */
enum class MsgType
{
    Hello,
    Submit,
    Result,
    Done,
    Ok,
    Stats,
    Shutdown,
    Error,
    Invalid, ///< unparseable line; see ParsedMsg::error
};

struct HelloMsg
{
    unsigned protocol = 0;
    std::string schema;      ///< tool::wireSchemaTag()
    std::string fingerprint; ///< campaign::modelFingerprint()
    unsigned workers = 0;    ///< server reply only
};

struct SubmitMsg
{
    std::string name; ///< spec name, for the server's log/stats
    std::vector<std::string> keys; ///< canonical scenarioKey()s
};

struct ResultMsg
{
    std::size_t index = 0; ///< position in the submit's key list
    bool cached = false;
    double wallMillis = 0.0;
    attacks::AttackResult result;
    uarch::CpuStats stats;
};

struct DoneMsg
{
    std::size_t executed = 0;
    std::size_t cacheHits = 0;
    double wallMillis = 0.0;
};

struct OkMsg
{
    std::size_t count = 0;
};

struct StatsMsg
{
    std::size_t connections = 0;
    std::size_t requests = 0;
    std::size_t executed = 0;
    std::size_t cacheHits = 0;
    std::size_t cacheSize = 0;
    // Verdict-model counters (v3): the daemon runs every submit under
    // the differential backend, so it judges every cell it serves
    // with the analytic model (verdict/model.hh) and tracks live
    // agreement against the simulator.
    std::size_t modelDecided = 0;
    std::size_t modelUndecided = 0;
    std::size_t modelDisagreements = 0;
};

/** One stats counter: its wire key and its StatsMsg member. */
struct StatsField
{
    const char *name;
    std::size_t StatsMsg::*member;
};

/**
 * Every stats counter, in wire order: the one list the emitter, the
 * parser and `campaign_cli stats` iterate.
 */
inline constexpr StatsField kStatsFields[] = {
    {"connections", &StatsMsg::connections},
    {"requests", &StatsMsg::requests},
    {"executed", &StatsMsg::executed},
    {"cacheHits", &StatsMsg::cacheHits},
    {"cacheSize", &StatsMsg::cacheSize},
    {"modelDecided", &StatsMsg::modelDecided},
    {"modelUndecided", &StatsMsg::modelUndecided},
    {"modelDisagreements", &StatsMsg::modelDisagreements},
};

/** One decoded line: the type tag plus the matching payload. */
struct ParsedMsg
{
    MsgType type = MsgType::Invalid;
    HelloMsg hello;
    SubmitMsg submit;
    ResultMsg result;
    DoneMsg done;
    OkMsg ok;
    StatsMsg stats;
    std::string error; ///< Error payload, or the parse failure
};

/** @name Emitters — one single-line JSON message each. @{ */
std::string helloLine(const HelloMsg &msg, bool with_workers);
std::string submitLine(const SubmitMsg &msg);
std::string resultLine(const ResultMsg &msg);
std::string doneLine(const DoneMsg &msg);
std::string okLine(std::size_t count);
std::string statsRequestLine();
std::string statsLine(const StatsMsg &msg);
std::string shutdownLine();
std::string errorLine(const std::string &message);
/// @}

/**
 * Decode one line.  Never throws; an unparseable line comes back
 * as MsgType::Invalid with a human-readable reason in .error (an
 * explicit error message decodes as MsgType::Error).
 */
ParsedMsg parseLine(const std::string &line);

/**
 * The handshake line this binary sends/expects: current protocol,
 * wireSchemaTag(), modelFingerprint().
 */
HelloMsg localHello();

/**
 * Validate a peer's hello against ours.  @return false with a
 * message naming the mismatched layer (protocol version, schema
 * tag, model fingerprint).
 */
bool checkHello(const HelloMsg &peer, std::string *error);

} // namespace specsec::serve

#endif // SPECSEC_SERVE_PROTOCOL_HH
