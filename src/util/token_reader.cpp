#include "util/token_reader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hmd {

namespace {

constexpr std::string_view kSpace = " \t\r\v\f";

/// A token as quoted in an error, cut short so a hostile line cannot
/// bloat the message.
std::string quoted(std::string_view token) {
  std::string text(1, '\'');
  text.append(token.substr(0, 32)).append(token.size() > 32 ? "...'" : "'");
  return text;
}

}  // namespace

std::string hexfloat(double v) { return format("%a", v); }

TokenReader::TokenReader(std::istream& in, std::string artifact)
    : in_(in), artifact_(std::move(artifact)) {}

std::string TokenReader::header(
    std::string_view magic, std::initializer_list<std::string_view> versions) {
  line(magic);
  std::string version = word(magic);
  if (std::find(versions.begin(), versions.end(), version) == versions.end())
    fail(magic, "unsupported version " + quoted(version));
  end_line();
  return version;
}

bool TokenReader::next_line() {
  tokens_.clear();
  next_ = 0;
  while (tokens_.empty()) {
    ++line_number_;
    if (!std::getline(in_, text_)) return false;
    const std::string_view text = text_;
    for (std::size_t at = text.find_first_not_of(kSpace);
         at != std::string_view::npos;) {
      const std::size_t end =
          std::min(text.find_first_of(kSpace, at), text.size());
      tokens_.push_back(text.substr(at, end - at));
      at = text.find_first_not_of(kSpace, end);
    }
  }
  return true;
}

void TokenReader::line(std::string_view key) {
  if (!next_line()) fail(key, "unexpected end of input");
  keyword(key);
}

void TokenReader::end_line() {
  if (next_ < tokens_.size())
    fail(tokens_[0], "unexpected trailing token " + quoted(tokens_[next_]));
}

std::string_view TokenReader::take(std::string_view field) {
  if (next_ >= tokens_.size()) fail(field, "missing value");
  return tokens_[next_++];
}

void TokenReader::keyword(std::string_view key) {
  const std::string_view token = take(key);
  if (token != key)
    fail(key, "expected '" + std::string(key) + "', got " + quoted(token));
}

std::uint64_t TokenReader::count(std::string_view field) {
  const std::string_view token = take(field);
  const char* end = token.data() + token.size();
  std::uint64_t value = 0;
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range)
    fail(field, quoted(token) + " exceeds 2^64 - 1");
  if (ec != std::errc() || stop != end)
    fail(field, quoted(token) + " is not an unsigned integer");
  return value;
}

double TokenReader::real(std::string_view field) {
  const std::string_view token = take(field);
  // from_chars takes neither a '+' nor the "0x" prefix "%a" writes: strip
  // the sign and prefix by hand, then parse the magnitude.
  const bool negative = token.starts_with('-');
  std::string_view body = token.substr(negative ? 1 : 0);
  const bool hex = body.starts_with("0x") || body.starts_with("0X");
  if (hex) body.remove_prefix(2);
  double value = 0.0;
  const char* end = body.data() + body.size();
  const bool ok = !body.empty() && body[0] != '-' && body[0] != '+' &&
                  std::from_chars(body.data(), end, value,
                                  hex ? std::chars_format::hex
                                      : std::chars_format::general) ==
                      std::from_chars_result{end, std::errc()};
  if (!ok) fail(field, quoted(token) + " is not a real number");
  if (std::isnan(value)) fail(field, "NaN is not allowed");
  return negative ? -value : value;
}

bool TokenReader::flag(std::string_view field) {
  const std::string_view token = take(field);
  if (token != "0" && token != "1")
    fail(field, quoted(token) + " must be 0 or 1");
  return token == "1";
}

std::vector<double> TokenReader::reals(std::string_view field) {
  std::vector<double> values;
  values.reserve(tokens_.size() - next_);
  while (next_ < tokens_.size()) values.push_back(real(field));
  return values;
}

std::vector<double> TokenReader::counted_reals(std::string_view field) {
  const std::uint64_t n = count(field);
  const std::size_t present = tokens_.size() - next_;
  if (n != present)
    fail(field, "count " + std::to_string(n) + " but " +
                    std::to_string(present) + " values");
  return reals(field);
}

void TokenReader::enter(std::string_view field) {
  if (++depth_ > 1000) fail(field, "nested more than 1000 levels deep");
}

void TokenReader::fail(std::string_view field, std::string_view what) const {
  throw ParseError(artifact_ + ": line " + std::to_string(line_number_) +
                   ": '" + std::string(field) + "': " + std::string(what));
}

}  // namespace hmd
