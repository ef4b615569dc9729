#include "jsonio.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace specsec::tool::json
{

void
Cursor::skipWs()
{
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
        ++pos_;
}

bool
Cursor::atEnd()
{
    skipWs();
    return pos_ >= text_.size();
}

bool
Cursor::expect(char c)
{
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
        ++pos_;
        return true;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "expected '%c' at offset %zu", c,
                  pos_);
    return fail(buf);
}

bool
Cursor::peekConsume(char c)
{
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
        ++pos_;
        return true;
    }
    return false;
}

std::string
Cursor::parseString()
{
    std::string out;
    if (!expect('"'))
        return out;
    while (pos_ < text_.size()) {
        const char c = text_[pos_++];
        if (c == '"')
            return out;
        if (c == '\\') {
            const std::size_t at = pos_ - 1;
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size()) {
                      fail("truncated \\u escape");
                      return out;
                  }
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' +
                                                        10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' +
                                                        10);
                      else {
                          fail("bad \\u escape digit");
                          return out;
                      }
                  }
                  // Our writers only escape control characters;
                  // one byte holds every code point up to 0x7f.
                  if (code > 0x7f) {
                      char buf[56];
                      std::snprintf(buf, sizeof buf,
                                    "unsupported \\u escape at "
                                    "offset %zu",
                                    at);
                      fail(buf);
                      return out;
                  }
                  out += static_cast<char>(code);
                  break;
              }
              default:
                  fail("unknown escape in string");
                  return out;
            }
        } else {
            out += c;
        }
    }
    fail("unterminated string");
    return out;
}

std::uint64_t
Cursor::parseDigits(std::size_t start, std::uint64_t limit)
{
    if (pos_ >= text_.size() || text_[pos_] < '0' ||
        text_[pos_] > '9') {
        char buf[48];
        std::snprintf(buf, sizeof buf,
                      "expected integer at offset %zu", pos_);
        fail(buf);
        return 0;
    }
    std::uint64_t value = 0;
    bool overflow = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' &&
           text_[pos_] <= '9') {
        const auto digit =
            static_cast<std::uint64_t>(text_[pos_++] - '0');
        if (digit > limit || value > (limit - digit) / 10)
            overflow = true;
        else
            value = value * 10 + digit;
    }
    if (overflow) {
        char buf[56];
        std::snprintf(buf, sizeof buf,
                      "integer out of range at offset %zu", start);
        fail(buf);
        return 0;
    }
    return value;
}

unsigned
Cursor::parseUnsigned()
{
    skipWs();
    return static_cast<unsigned>(
        parseDigits(pos_, std::numeric_limits<unsigned>::max()));
}

std::uint64_t
Cursor::parseU64()
{
    skipWs();
    return parseDigits(pos_,
                       std::numeric_limits<std::uint64_t>::max());
}

std::int64_t
Cursor::parseI64(std::int64_t min, std::int64_t max)
{
    skipWs();
    const std::size_t start = pos_;
    const bool negative =
        pos_ < text_.size() && text_[pos_] == '-';
    if (negative)
        ++pos_;
    // The magnitude's limit on the number's side of zero, computed
    // in unsigned arithmetic: |INT64_MIN| is one more than
    // INT64_MAX.
    const std::uint64_t magnitude = parseDigits(
        start, negative ? 0 - static_cast<std::uint64_t>(min)
                        : static_cast<std::uint64_t>(max));
    // Modular conversion (C++20): 0 - 2^63 becomes INT64_MIN.
    return static_cast<std::int64_t>(negative ? 0 - magnitude
                                              : magnitude);
}

double
Cursor::parseDouble()
{
    skipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if ((c >= '0' && c <= '9') || c == '-' || c == '+' ||
            c == '.' || c == 'e' || c == 'E')
            ++pos_;
        else
            break;
    }
    if (pos_ == start) {
        char buf[48];
        std::snprintf(buf, sizeof buf,
                      "expected number at offset %zu", start);
        fail(buf);
        return 0.0;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
        fail("malformed number '" + token + "'");
        return 0.0;
    }
    // 1e999 reads as inf, which no writer can emit back.
    if (!std::isfinite(value)) {
        char buf[48];
        std::snprintf(buf, sizeof buf,
                      "number out of range at offset %zu", start);
        fail(buf);
        return 0.0;
    }
    return value;
}

bool
Cursor::parseBool()
{
    skipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
        pos_ += 4;
        return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
        pos_ += 5;
        return false;
    }
    char buf[56];
    std::snprintf(buf, sizeof buf,
                  "expected true/false at offset %zu", pos_);
    fail(buf);
    return false;
}

bool
Cursor::fail(const std::string &message)
{
    if (!failed_) {
        failed_ = true;
        error_ = message;
    }
    return false;
}

std::vector<std::string>
parseStringArray(Cursor &cur)
{
    std::vector<std::string> out;
    if (!cur.expect('['))
        return out;
    if (cur.peekConsume(']'))
        return out;
    do {
        out.push_back(cur.parseString());
    } while (!cur.failed() && cur.peekConsume(','));
    cur.expect(']');
    return out;
}

} // namespace specsec::tool::json
