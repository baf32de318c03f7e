// The one reader for the text artifacts: model files, deployment bundles
// and engine snapshots. docs/resilience.md (*Artifact text formats*)
// states their shared grammar. Every violation throws ParseError
// "<artifact>: line <n>: '<field>': <what>", and no count read from the
// input sizes an allocation.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hmd {

/// The exact text form of a real in every artifact ("%a" hexfloat);
/// TokenReader::real parses it back bit-identically.
std::string hexfloat(double v);

/// Tokenized line reader over one artifact. Decoders consume the current
/// line's tokens left to right; `field` names the value in errors.
class TokenReader {
 public:
  /// `artifact` prefixes every error ("model", "bundle", "snapshot").
  TokenReader(std::istream& in, std::string artifact);

  /// The first line, "<magic> <version>"; returns the version, which must
  /// be one of `versions`.
  std::string header(std::string_view magic,
                     std::initializer_list<std::string_view> versions);
  /// Move to the next non-blank line; false at end of input.
  bool next_line();
  /// Move to the next line, which must exist and start with `key`.
  void line(std::string_view key);
  /// The next unread token of the current line ("" when none is left).
  std::string_view peek() const {
    return next_ < tokens_.size() ? tokens_[next_] : std::string_view();
  }
  /// Fail unless every token of the current line has been read.
  void end_line();

  /// Read a token that must equal `key`.
  void keyword(std::string_view key);
  /// Read a token as text.
  std::string word(std::string_view field) { return std::string(take(field)); }
  /// An unsigned decimal integer: no sign, at most 2^64 - 1.
  std::uint64_t count(std::string_view field);
  /// A real other than NaN (±inf allowed).
  double real(std::string_view field);
  /// "0" or "1".
  bool flag(std::string_view field);
  /// Every remaining token of the line as a real.
  std::vector<double> reals(std::string_view field);
  /// A count, then exactly that many reals ending the line.
  std::vector<double> counted_reals(std::string_view field);

  /// Whole lines "<key> <count>", "<key> <real>" and "<key> <real>*".
  std::uint64_t count_line(std::string_view key) {
    line(key);
    const std::uint64_t value = count(key);
    end_line();
    return value;
  }
  double real_line(std::string_view key) {
    line(key);
    const double value = real(key);
    end_line();
    return value;
  }
  std::vector<double> reals_line(std::string_view key) {
    line(key);
    return reals(key);
  }
  /// Mid-line pairs "... <key> <count> ..." and "... <key> <real> ...".
  std::uint64_t count_field(std::string_view key) {
    keyword(key);
    return count(key);
  }
  double real_field(std::string_view key) {
    keyword(key);
    return real(key);
  }

  /// Bracket one nested section (a tree node, a committee member): more
  /// than 1000 open at once fail naming `field`, bounding the recursion a
  /// file can drive. A reader is not reused after a ParseError, so a
  /// failed section need not leave().
  void enter(std::string_view field);
  void leave() { --depth_; }

  /// Throw the ParseError for `field` at the current line.
  [[noreturn]] void fail(std::string_view field, std::string_view what) const;

 private:
  /// The next token; fails naming `field` when the line has none left.
  std::string_view take(std::string_view field);

  std::istream& in_;
  std::string artifact_;
  std::string text_;
  std::vector<std::string_view> tokens_;  ///< views into text_
  std::size_t next_ = 0;                  ///< first unread token
  std::size_t line_number_ = 0;
  std::size_t depth_ = 0;  ///< open nested sections
};

}  // namespace hmd
