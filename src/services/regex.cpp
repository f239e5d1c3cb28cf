#include "services/regex.hpp"

#include "core/function_ref.hpp"

namespace edgewatch::services {

namespace {
constexpr std::uint32_t kStepBudget = 200'000;  // backtracking safety valve
}

// --------------------------------------------------------------- parser

struct Regex::Parser {
  std::string_view pattern;
  std::size_t pos = 0;
  bool failed = false;

  [[nodiscard]] bool done() const { return pos >= pattern.size(); }
  [[nodiscard]] char peek() const { return done() ? '\0' : pattern[pos]; }
  char take() { return done() ? '\0' : pattern[pos++]; }

  /// alternation := sequence ('|' sequence)*
  std::vector<std::vector<NodePtr>> parse_alternation() {
    std::vector<std::vector<NodePtr>> alts;
    alts.push_back(parse_sequence());
    while (!failed && peek() == '|') {
      take();
      alts.push_back(parse_sequence());
    }
    return alts;
  }

  /// sequence := quantified*
  std::vector<NodePtr> parse_sequence() {
    std::vector<NodePtr> seq;
    while (!failed && !done() && peek() != '|' && peek() != ')') {
      auto node = parse_quantified();
      if (failed || !node) break;
      seq.push_back(std::move(node));
    }
    return seq;
  }

  /// quantified := atom ('*' | '+' | '?')?
  NodePtr parse_quantified() {
    auto atom = parse_atom();
    if (failed || !atom) return atom;
    const char q = peek();
    if (q == '*' || q == '+' || q == '?') {
      take();
      if (atom->kind == Kind::kBeginAnchor || atom->kind == Kind::kEndAnchor) {
        failed = true;  // quantified anchors are nonsense
        return nullptr;
      }
      auto wrap = std::make_unique<Node>();
      wrap->kind = q == '*' ? Kind::kStar : q == '+' ? Kind::kPlus : Kind::kOptional;
      wrap->child = std::move(atom);
      return wrap;
    }
    return atom;
  }

  NodePtr parse_atom() {
    const char c = take();
    auto node = std::make_unique<Node>();
    switch (c) {
      case '^':
        node->kind = Kind::kBeginAnchor;
        return node;
      case '$':
        node->kind = Kind::kEndAnchor;
        return node;
      case '.':
        node->kind = Kind::kAny;
        return node;
      case '(': {
        node->kind = Kind::kAlternate;
        node->alts = parse_alternation();
        if (take() != ')') failed = true;
        return node;
      }
      case '[':
        return parse_class();
      case '\\': {
        if (done()) {
          failed = true;
          return nullptr;
        }
        node->kind = Kind::kLiteral;
        node->literal = take();
        return node;
      }
      case ')':
      case '*':
      case '+':
      case '?':
      case '|':
      case '\0':
        failed = true;
        return nullptr;
      default:
        node->kind = Kind::kLiteral;
        node->literal = c;
        return node;
    }
  }

  NodePtr parse_class() {
    auto node = std::make_unique<Node>();
    node->kind = Kind::kClass;
    node->char_class.assign(256, false);
    bool negate = false;
    if (peek() == '^') {
      take();
      negate = true;
    }
    bool first = true;
    while (!done() && (peek() != ']' || first)) {
      first = false;
      char lo = take();
      if (lo == '\\' && !done()) lo = take();
      char hi = lo;
      if (peek() == '-' && pos + 1 < pattern.size() && pattern[pos + 1] != ']') {
        take();  // '-'
        hi = take();
        if (hi == '\\' && !done()) hi = take();
      }
      if (static_cast<unsigned char>(lo) > static_cast<unsigned char>(hi)) {
        failed = true;
        return nullptr;
      }
      for (int ch = static_cast<unsigned char>(lo); ch <= static_cast<unsigned char>(hi); ++ch) {
        node->char_class[static_cast<std::size_t>(ch)] = true;
      }
    }
    if (take() != ']') {
      failed = true;
      return nullptr;
    }
    if (negate) {
      for (std::size_t i = 0; i < 256; ++i) node->char_class[i] = !node->char_class[i];
    }
    return node;
  }
};

std::optional<Regex> Regex::compile(std::string_view pattern) {
  Parser parser{pattern};
  auto alts = parser.parse_alternation();
  if (parser.failed || !parser.done()) return std::nullopt;
  Regex re;
  re.pattern_ = std::string(pattern);
  if (alts.size() == 1) {
    re.root_ = std::move(alts[0]);
  } else {
    auto node = std::make_unique<Node>();
    node->kind = Kind::kAlternate;
    node->alts = std::move(alts);
    re.root_.push_back(std::move(node));
  }
  return re;
}

// -------------------------------------------------------------- matcher

/// Continuation-passing backtracking: `match_node(n, pos, cont)` succeeds
/// if node `n` matches at `pos` and the continuation accepts the position
/// after the match. Sequences chain continuations; alternation and greedy
/// quantifiers backtrack by trying continuations in preference order. A
/// continuation is a FunctionRef to a named lambda in the caller's frame,
/// which outlives every call it is passed down to, so building one costs
/// two words on the stack instead of a std::function.
struct Regex::Matcher {
  std::string_view text;
  std::uint32_t budget = kStepBudget;

  using Cont = core::FunctionRef<bool(std::size_t)>;

  bool match_node(const Node& node, std::size_t pos, Cont cont) {
    if (budget == 0) return false;
    --budget;
    switch (node.kind) {
      case Kind::kLiteral:
        return pos < text.size() && text[pos] == node.literal && cont(pos + 1);
      case Kind::kAny:
        return pos < text.size() && cont(pos + 1);
      case Kind::kClass:
        return pos < text.size() && node.char_class[static_cast<unsigned char>(text[pos])] &&
               cont(pos + 1);
      case Kind::kBeginAnchor:
        return pos == 0 && cont(pos);
      case Kind::kEndAnchor:
        return pos == text.size() && cont(pos);
      case Kind::kAlternate:
        for (const auto& alt : node.alts) {
          if (match_seq(alt, 0, pos, cont)) return true;
        }
        return false;
      case Kind::kStar:
        return match_star(*node.child, pos, cont);
      case Kind::kPlus: {
        const auto then_star = [&](std::size_t p) { return match_star(*node.child, p, cont); };
        return match_node(*node.child, pos, then_star);
      }
      case Kind::kOptional:
        if (match_node(*node.child, pos, cont)) return true;
        return cont(pos);
    }
    return false;
  }

  bool match_star(const Node& child, std::size_t pos, Cont cont) {
    // Greedy: one more repetition first, then the continuation. The
    // zero-width guard (p != pos) prevents infinite loops on e.g. (a?)*.
    const auto repeat = [&](std::size_t p) { return p != pos && match_star(child, p, cont); };
    if (match_node(child, pos, repeat)) return true;
    return cont(pos);
  }

  bool match_seq(const std::vector<NodePtr>& seq, std::size_t idx, std::size_t pos,
                 Cont cont) {
    if (idx == seq.size()) return cont(pos);
    const auto rest = [&](std::size_t p) { return match_seq(seq, idx + 1, p, cont); };
    return match_node(*seq[idx], pos, rest);
  }
};

bool Regex::search(std::string_view text) const {
  Matcher m{text};
  const auto accept = [](std::size_t) { return true; };
  // A sequence led by ^ can only match at offset 0. (A top-level
  // alternation such as ^a|b is one kAlternate node and tries every start.)
  const bool anchored = !root_.empty() && root_.front()->kind == Kind::kBeginAnchor;
  const std::size_t last_start = anchored ? 0 : text.size();
  for (std::size_t start = 0; start <= last_start; ++start) {
    if (m.match_seq(root_, 0, start, accept)) return true;
  }
  return false;
}

bool Regex::full_match(std::string_view text) const {
  Matcher m{text};
  const auto at_end = [&](std::size_t p) { return p == text.size(); };
  return m.match_seq(root_, 0, 0, at_end);
}

}  // namespace edgewatch::services
