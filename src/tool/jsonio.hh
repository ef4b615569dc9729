/**
 * @file
 * Shared minimal JSON reading for the tree's persisted artifacts.
 *
 * Every JSON file and line this repository writes (golden matrices,
 * lint and disagreement pins, shard reports, persisted result
 * caches, serve protocol lines) is emitted by our own writers as a
 * strict subset of JSON: objects with string keys, arrays, strings
 * escaping only control characters, numbers, and the true/false
 * literals.  This cursor is the one parser of that subset, with
 * byte-offset-tagged errors.  A value it cannot represent — an
 * integer past its type, a number past a finite double, a \u escape
 * above 0x7f — fails with a named error instead of reading as some
 * other value.
 */

#ifndef SPECSEC_TOOL_JSONIO_HH
#define SPECSEC_TOOL_JSONIO_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace specsec::tool::json
{

/** Cursor over a JSON text; sticky failure with a tagged message. */
class Cursor
{
  public:
    explicit Cursor(const std::string &text) : text_(text) {}
    /// The cursor keeps a reference, so a temporary text would
    /// dangle (a string literal included).
    Cursor(std::string &&) = delete;

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }

    void skipWs();

    /** True when only whitespace remains. */
    bool atEnd();

    /** Consume @p c or fail. */
    bool expect(char c);

    /** True (and consumed) when the next token is @p c. */
    bool peekConsume(char c);

    /** A string; fails with "unsupported \u escape" on a \u
     *  escape above 0x7f. */
    std::string parseString();

    /** Unsigned decimal; fails on sign, fraction or exponent, and
     *  with "integer out of range" past the result type's maximum. */
    unsigned parseUnsigned();
    std::uint64_t parseU64();

    /** Signed decimal integer; fails with "integer out of range"
     *  outside [@p min, @p max], a range that holds 0. */
    std::int64_t
    parseI64(std::int64_t min = std::numeric_limits<std::int64_t>::min(),
             std::int64_t max = std::numeric_limits<std::int64_t>::max());

    /** JSON number including sign/fraction/exponent; fails with
     *  "number out of range" when it does not fit a finite double. */
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

} // namespace specsec::tool::json

#endif // SPECSEC_TOOL_JSONIO_HH
