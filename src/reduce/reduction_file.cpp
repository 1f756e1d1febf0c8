#include "reduce/reduction_file.hpp"

#include <cctype>

#include "mpc/auth.hpp"
#include "util/parse.hpp"

namespace mpch::reduce {

std::string Reduction::describe() const {
  return name + ": " + source + " => " + target + " via " + term.describe() + ";";
}

namespace {

bool is_name_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_' || c == '+' || c == '.' ||
         c == '/' || c == '-';
}

/// Character cursor with 1-based line/column tracking and comment/space
/// skipping. All parsing goes through here so provenance can never drift.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  [[noreturn]] void fail(const std::string& what) const { throw ReductionError(line_, col_, what); }

  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        advance();
      } else {
        return;
      }
    }
  }

  bool at_end() {
    skip_space_and_comments();
    return pos_ >= text_.size();
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  /// Consume one expected punctuation character.
  void expect(char c, const char* context) {
    skip_space_and_comments();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "' " + context + found_here());
    }
    advance();
  }

  /// Consume "=>".
  void expect_arrow() {
    skip_space_and_comments();
    if (pos_ + 1 >= text_.size() || text_[pos_] != '=' || text_[pos_ + 1] != '>') {
      fail("expected '=>' between source and target" + found_here());
    }
    advance();
    advance();
  }

  /// Consume a name token ([A-Za-z0-9_+./-]+, length-capped).
  std::string expect_name(const char* what) {
    skip_space_and_comments();
    const std::size_t start = pos_;
    for (; pos_ < text_.size() && is_name_char(text_[pos_]); advance()) {
      if (pos_ - start >= kMaxNameBytes) {
        fail(std::string(what) + " exceeds " + std::to_string(kMaxNameBytes) + " bytes");
      }
    }
    if (pos_ == start) fail(std::string("expected ") + what + found_here());
    return text_.substr(start, pos_ - start);
  }

  /// Consume a decimal u64 (util::parse_decimal); overflow is reported at its start.
  std::uint64_t expect_u64(const char* what) {
    skip_space_and_comments();
    std::size_t end = pos_;
    while (end < text_.size() && std::isdigit(static_cast<unsigned char>(text_[end])) != 0) ++end;
    if (end == pos_) fail(std::string("expected a decimal number for ") + what + found_here());
    const util::Decimal n = util::parse_decimal(std::string_view(text_).substr(pos_, end - pos_));
    if (n.error != util::DecimalError::kNone) fail(std::string(what) + " overflows u64");
    while (pos_ < end) advance();
    return n.value;
  }

  bool consume_if(char c) {
    skip_space_and_comments();
    if (pos_ < text_.size() && text_[pos_] == c) {
      advance();
      return true;
    }
    return false;
  }

  std::uint64_t line() const { return line_; }

 private:
  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  std::string found_here() const {
    if (pos_ >= text_.size()) return " (found end of file)";
    const char c = text_[pos_];
    if (std::isprint(static_cast<unsigned char>(c)) != 0) {
      return std::string(" (found '") + c + "')";
    }
    return " (found byte " + std::to_string(static_cast<unsigned>(static_cast<unsigned char>(c))) +
           ")";
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::uint64_t line_ = 1;
  std::uint64_t col_ = 1;
};

/// Parse one term; `leaves` accumulates across the whole statement so a
/// hostile compose(compose(...)...) pyramid hits the cap, not the stack.
Term parse_term(Cursor& cur, std::uint64_t depth, std::uint64_t* leaves) {
  if (depth > kMaxTermDepth) cur.fail("term nesting exceeds depth " + std::to_string(kMaxTermDepth));
  const std::string head = cur.expect_name("a term name");
  if (head == "compose") {
    cur.expect('(', "after 'compose'");
    std::vector<Term> children;
    do {
      children.push_back(parse_term(cur, depth + 1, leaves));
    } while (cur.consume_if(','));
    cur.expect(')', "to close 'compose'");
    return Term::compose(std::move(children));
  }

  if (*leaves >= kMaxTermLeaves) {
    cur.fail("term has more than " + std::to_string(kMaxTermLeaves) + " leaves");
  }
  ++*leaves;

  if (head == "identity") return Term::identity();

  // with_authentication may omit its argument: the runtime's MAC width.
  if (head == "with_authentication" && cur.peek() != '(') {
    return Term::with_authentication(mpc::kMessageTagBits);
  }

  cur.expect('(', ("after '" + head + "'").c_str());
  const std::uint64_t arg = cur.expect_u64(("the argument of " + head).c_str());
  cur.expect(')', ("to close '" + head + "'").c_str());

  try {
    if (head == "round_compress") return Term::round_compress(arg);
    if (head == "round_stretch") return Term::round_stretch(arg);
    if (head == "space_scale") return Term::space_scale(arg);
    if (head == "machine_regroup") return Term::machine_regroup(arg);
    if (head == "with_authentication") return Term::with_authentication(arg);
    if (head == "oracle_reindex") return Term::oracle_reindex(arg);
  } catch (const std::invalid_argument& e) {
    cur.fail(e.what());  // zero-argument factories reject; add provenance
  }
  cur.fail("unknown term '" + head + "'");
}

}  // namespace

std::vector<Reduction> parse_reduction_file(const std::string& text) {
  if (text.size() > kMaxFileBytes) {
    throw ReductionError(1, 1,
                         "file exceeds " + std::to_string(kMaxFileBytes) + " bytes");
  }
  Cursor cur(text);
  std::vector<Reduction> out;
  while (!cur.at_end()) {
    if (out.size() >= kMaxReductions) {
      cur.fail("file declares more than " + std::to_string(kMaxReductions) + " reductions");
    }
    Reduction r;
    r.source_line = cur.line();
    r.name = cur.expect_name("a reduction name");
    cur.expect(':', "after the reduction name");
    r.source = cur.expect_name("a source spec name");
    cur.expect_arrow();
    r.target = cur.expect_name("a target spec name");
    const std::string via = cur.expect_name("'via'");
    if (via != "via") cur.fail("expected 'via' before the term list (found '" + via + "')");

    std::uint64_t leaves = 0;
    std::vector<Term> terms;
    do {
      terms.push_back(parse_term(cur, 0, &leaves));
    } while (cur.consume_if(','));
    cur.expect(';', "to terminate the reduction");
    r.term = terms.size() == 1 ? std::move(terms.front()) : Term::compose(std::move(terms));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace mpch::reduce
