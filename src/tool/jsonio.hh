/**
 * @file
 * Shared minimal JSON reading for the tree's persisted artifacts.
 *
 * Every JSON file this repository writes (golden matrices, shard
 * reports, persisted result caches) is emitted by our own writers as
 * a strict subset of JSON: objects with string keys, arrays,
 * strings, numbers, and the true/false literals.  This cursor parses
 * exactly that subset with byte-offset-tagged errors; it is the one
 * parser behind src/regress/golden.cc, src/tool/report_io.cc and
 * src/campaign/persist.cc.
 */

#ifndef SPECSEC_TOOL_JSONIO_HH
#define SPECSEC_TOOL_JSONIO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace specsec::tool::json
{

/** Cursor over a JSON text; sticky failure with a tagged message. */
class Cursor
{
  public:
    explicit Cursor(const std::string &text) : text_(text) {}

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }

    void skipWs();

    /** True when only whitespace remains. */
    bool atEnd();

    /** Consume @p c or fail. */
    bool expect(char c);

    /** True (and consumed) when the next token is @p c. */
    bool peekConsume(char c);

    std::string parseString();

    /** Unsigned decimal; fails on sign, fraction or exponent, and
     *  with "integer out of range" past the result type's maximum. */
    unsigned parseUnsigned();
    std::uint64_t parseU64();

    /** Signed decimal integer; fails outside the int64_t range. */
    std::int64_t parseI64();

    /** JSON number including sign/fraction/exponent. */
    double parseDouble();

    /** The @c true / @c false literals. */
    bool parseBool();

    bool fail(const std::string &message);

  private:
    /** The digit run at pos_, failing past @p limit with the
     *  number's @p start offset. */
    std::uint64_t parseDigits(std::size_t start, std::uint64_t limit);

    const std::string &text_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

/** `[ "a", "b" ]` */
std::vector<std::string> parseStringArray(Cursor &cur);

/** `[ 1, -2, 3 ]` */
std::vector<std::int64_t> parseIntArray(Cursor &cur);

} // namespace specsec::tool::json

#endif // SPECSEC_TOOL_JSONIO_HH
