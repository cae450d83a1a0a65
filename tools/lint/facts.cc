#include "lint/facts.h"

#include <algorithm>
#include <sstream>

namespace shpir::lint {

namespace {

bool IsOpenBracket(const std::string& t) {
  return t == "(" || t == "[" || t == "{";
}
bool IsCloseBracket(const std::string& t) {
  return t == ")" || t == "]" || t == "}";
}

bool IsKeyword(const std::string& t) {
  static const std::set<std::string> kSet = {
      "if",     "for",    "while",  "switch",   "return", "sizeof",
      "alignof", "catch",  "new",    "delete",   "case",   "do",
      "else",   "goto",   "operator", "static_assert", "decltype",
      "throw",  "co_return", "co_await", "co_yield", "alignas"};
  return kSet.count(t) != 0;
}

const std::set<std::string>& StreamSinks() {
  static const std::set<std::string> kSet = {"cout", "cerr", "clog", "wcout",
                                             "wcerr"};
  return kSet;
}

const std::set<std::string>& InsecureRngs() {
  static const std::set<std::string> kSet = {
      "rand",          "srand",          "rand_r",
      "drand48",       "lrand48",        "mrand48",
      "erand48",       "srandom",        "random_shuffle",
      "mt19937",       "mt19937_64",     "minstd_rand",
      "minstd_rand0",  "default_random_engine",
      "knuth_b",       "ranlux24",       "ranlux24_base",
      "ranlux48",      "ranlux48_base",  "random_device"};
  return kSet;
}

/// Name declared by a `SHPIR_SECRET <decl>`: the last angle-depth-0
/// identifier before the first top-level `; = ( { [ , )`.
std::string DeclaredName(const std::vector<Token>& tokens, size_t start,
                         size_t limit) {
  std::string last;
  std::string prev_last;
  int angle = 0;
  for (size_t j = start; j < limit && j < start + 64; ++j) {
    const Token& tok = tokens[j];
    if (tok.text == "<") {
      ++angle;
      continue;
    }
    if (tok.text == ">") {
      angle = std::max(0, angle - 1);
      continue;
    }
    if (angle > 0) {
      continue;
    }
    // Thread-safety annotation macros trail the declarator; the name is
    // the identifier before them.
    if (tok.text == "(" && (last == "GUARDED_BY" || last == "ABSL_GUARDED_BY")) {
      last = prev_last;
      if (tok.match > 0 && static_cast<size_t>(tok.match) < limit) {
        j = static_cast<size_t>(tok.match);
        continue;
      }
      return last;
    }
    if (tok.text == ";" || tok.text == "=" || tok.text == "(" ||
        tok.text == "{" || tok.text == "[" || tok.text == "," ||
        tok.text == ")") {
      return last;
    }
    if (tok.kind == Token::Kind::kIdent) {
      prev_last = last;
      last = tok.text;
    }
  }
  return last;
}

/// Name declared by `Secret<T> name`; empty for temporaries.
std::string SecretTypeDeclName(const std::vector<Token>& tokens, size_t i) {
  // tokens[i] == "Secret", tokens[i+1] == "<".
  int angle = 0;
  for (size_t j = i + 1; j < tokens.size() && j < i + 64; ++j) {
    if (tokens[j].text == "<") {
      ++angle;
    } else if (tokens[j].text == ">" || tokens[j].text == ">>") {
      angle -= tokens[j].text == ">" ? 1 : 2;
      if (angle <= 0) {
        if (j + 1 < tokens.size() &&
            tokens[j + 1].kind == Token::Kind::kIdent) {
          return tokens[j + 1].text;
        }
        return "";
      }
    }
  }
  return "";
}

bool LooksLikeMember(const std::string& name) {
  return name.size() > 1 && name.back() == '_';
}

// ---------------------------------------------------------------------------
// Function definition recognition
// ---------------------------------------------------------------------------

/// If tokens[open] == "(" starts the parameter list of a function
/// definition, returns the index of the body '{'; otherwise -1. Handles
/// trailing qualifiers (const/noexcept/override/-> Type) and
/// constructor initializer lists.
int FunctionBodyBrace(const std::vector<Token>& toks, size_t open) {
  if (toks[open].match < 0) {
    return -1;
  }
  size_t j = static_cast<size_t>(toks[open].match) + 1;
  bool init_list = false;
  int guard = 0;
  int angle = 0;
  while (j < toks.size() && ++guard < 256) {
    const std::string& t = toks[j].text;
    if (t == "{") {
      if (!init_list) {
        return static_cast<int>(j);
      }
      const std::string& prev = toks[j - 1].text;
      if (prev == ")" || prev == "}") {
        return static_cast<int>(j);  // Body after the last initializer.
      }
      if (toks[j].match < 0) {
        return -1;
      }
      j = static_cast<size_t>(toks[j].match) + 1;  // Brace initializer.
      continue;
    }
    if (t == "(") {
      if (toks[j].match < 0) {
        return -1;
      }
      j = static_cast<size_t>(toks[j].match) + 1;  // noexcept(...) / init.
      continue;
    }
    if (t == ";" || t == "=" || t == "}") {
      return -1;  // Declaration, `= default/delete`, or end of scope.
    }
    if (t == ":") {
      init_list = true;
      ++j;
      continue;
    }
    if (t == "<") {
      ++angle;
      ++j;
      continue;
    }
    if (t == ">") {
      if (angle == 0) {
        return -1;
      }
      --angle;
      ++j;
      continue;
    }
    if (init_list || toks[j].kind == Token::Kind::kIdent || t == "&" ||
        t == "&&" || t == "*" || t == "->" || t == "::" || t == ",") {
      ++j;
      continue;
    }
    return -1;
  }
  return -1;
}

struct ClassRange {
  size_t begin;
  size_t end;
  std::string name;
};

/// Finds `class X ... { ... }` / `struct X ... { ... }` body ranges so
/// inline-defined methods can be attributed to their class.
std::vector<ClassRange> FindClassRanges(const std::vector<Token>& toks) {
  std::vector<ClassRange> out;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        (toks[i].text != "class" && toks[i].text != "struct")) {
      continue;
    }
    if (i > 0 && toks[i - 1].text == "enum") {
      continue;
    }
    // Name: the next identifier.
    size_t j = i + 1;
    while (j < toks.size() && toks[j].kind != Token::Kind::kIdent &&
           j < i + 6) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != Token::Kind::kIdent) {
      continue;
    }
    const std::string name = toks[j].text;
    // Scan to the body '{', failing on anything that means this was a
    // template parameter, forward declaration, or value context.
    int angle = 0;
    bool found = false;
    for (size_t k = j + 1; k < toks.size() && k < j + 64; ++k) {
      const std::string& t = toks[k].text;
      if (t == "{" && angle == 0) {
        if (toks[k].match > 0) {
          out.push_back({k, static_cast<size_t>(toks[k].match), name});
        }
        found = true;
        break;
      }
      if (t == "<") {
        ++angle;
      } else if (t == ">") {
        if (angle == 0) {
          break;
        }
        --angle;
      } else if (t == ">>") {
        angle -= 2;
        if (angle < 0) {
          break;
        }
      } else if (angle == 0 && (t == ";" || t == ")" || t == "=" ||
                                t == "(" || t == "}")) {
        break;
      }
    }
    (void)found;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Body fact extraction
// ---------------------------------------------------------------------------

class BodyWalker {
 public:
  BodyWalker(const std::vector<Token>& toks, size_t begin, size_t end,
             FunctionFact* fn, bool file_scope = false)
      : toks_(toks),
        begin_(begin),
        end_(end),
        fn_(fn),
        file_scope_(file_scope) {
    CollectLoopRanges();
  }

  void Walk() {
    int paren_depth = 0;
    for (size_t i = begin_; i < end_; ++i) {
      const Token& tok = toks_[i];
      if (tok.text == "(") {
        ++paren_depth;
      } else if (tok.text == ")") {
        paren_depth = std::max(0, paren_depth - 1);
      }
      if (tok.kind == Token::Kind::kIdent) {
        if (tok.text == "Secret" && i + 1 < end_ &&
            toks_[i + 1].text == "<") {
          // At file scope, a Secret/SHPIR_SECRET inside parentheses is a
          // parameter of a function *declaration*; the definition's own
          // parameter list marks it secret, so it is not a scope root.
          if (file_scope_ && paren_depth > 0) {
            continue;
          }
          const std::string name = SecretTypeDeclName(toks_, i);
          if (!name.empty()) {
            fn_->local_roots.push_back(name);
          }
        } else if (tok.text == "SHPIR_SECRET") {
          if (file_scope_ && paren_depth > 0) {
            continue;
          }
          const std::string name = DeclaredName(toks_, i + 1, end_);
          if (!name.empty()) {
            fn_->local_roots.push_back(name);
          }
        } else if (tok.text == "if" || tok.text == "switch") {
          OnBranch(i);
        } else if (tok.text == "while") {
          OnWhile(i);
        } else if (tok.text == "for") {
          OnFor(i);
        } else if (tok.text == "return") {
          OnReturn(i);
        } else if (StreamSinks().count(tok.text) != 0) {
          OnStream(i);
        } else if (InsecureRngs().count(tok.text) != 0) {
          fn_->sites.push_back(
              {"insecure-rng",
               tok.line,
               {},
               "",
               "'" + tok.text +
                   "' is not a cryptographic RNG; use "
                   "crypto::SecureRandom inside the trust boundary"});
        } else if (!IsKeyword(tok.text) && i + 1 < end_ &&
                   toks_[i + 1].text == "(" && toks_[i + 1].match >= 0) {
          OnCall(i);
        }
      } else if (tok.text == "[") {
        OnSubscript(i);
      } else if (tok.text == "?") {
        OnTernary(i);
      } else if (tok.text == "==" || tok.text == "!=") {
        OnEquality(i);
      } else if (tok.kind == Token::Kind::kPunct &&
                 (tok.text == "=" || tok.text == "+=" || tok.text == "-=" ||
                  tok.text == "*=" || tok.text == "/=" || tok.text == "%=" ||
                  tok.text == "&=" || tok.text == "|=" || tok.text == "^=" ||
                  tok.text == "<<=" || tok.text == ">>=")) {
        OnAssign(i);
      }
    }
  }

 private:
  /// Structural accessors: the element count / emptiness of a secret
  /// container is a public scheme parameter (n pages, m cache slots),
  /// not the secret content, so `x.size()` is not a mention of x.
  static bool IsSizeAccessor(const std::string& name) {
    return name == "size" || name == "empty" || name == "capacity" ||
           name == "length";
  }

  std::vector<std::string> NamesIn(size_t from, size_t to) const {
    std::vector<std::string> names;
    for (size_t j = from; j < to && j < end_; ++j) {
      if (toks_[j].kind != Token::Kind::kIdent || IsKeyword(toks_[j].text)) {
        continue;
      }
      if (j + 3 < end_ &&
          (toks_[j + 1].text == "." || toks_[j + 1].text == "->") &&
          IsSizeAccessor(toks_[j + 2].text) && toks_[j + 3].text == "(") {
        continue;  // `x.size()`: skip x; the accessor is skipped below.
      }
      if (IsSizeAccessor(toks_[j].text) && j > begin_ &&
          (toks_[j - 1].text == "." || toks_[j - 1].text == "->") &&
          j + 1 < end_ && toks_[j + 1].text == "(") {
        continue;
      }
      if (std::find(names.begin(), names.end(), toks_[j].text) ==
          names.end()) {
        names.push_back(toks_[j].text);
      }
    }
    return names;
  }

  /// End (exclusive) of an assignment RHS starting at `begin`: the next
  /// top-level `;` or the close of an enclosing bracket.
  size_t RhsEnd(size_t from) const {
    int depth = 0;
    for (size_t j = from; j < end_; ++j) {
      const std::string& t = toks_[j].text;
      if (IsOpenBracket(t)) {
        ++depth;
      } else if (IsCloseBracket(t)) {
        if (--depth < 0) {
          return j;
        }
      } else if (t == ";" && depth == 0) {
        return j;
      }
    }
    return end_;
  }

  void CollectLoopRanges() {
    for (size_t i = begin_; i < end_; ++i) {
      const Token& tok = toks_[i];
      if (tok.kind != Token::Kind::kIdent) {
        continue;
      }
      size_t body = 0;
      if (tok.text == "do") {
        body = i + 1;
      } else if (tok.text == "for" || tok.text == "while") {
        if (i + 1 >= end_ || toks_[i + 1].text != "(" ||
            toks_[i + 1].match < 0) {
          continue;
        }
        body = static_cast<size_t>(toks_[i + 1].match) + 1;
      } else {
        continue;
      }
      if (body >= end_) {
        continue;
      }
      if (toks_[body].text == "{" && toks_[body].match > 0) {
        loops_.emplace_back(body, static_cast<size_t>(toks_[body].match));
      } else if (toks_[body].text != ";") {
        size_t j = body;
        int depth = 0;
        while (j < end_ && (depth > 0 || toks_[j].text != ";")) {
          if (IsOpenBracket(toks_[j].text)) {
            ++depth;
          } else if (IsCloseBracket(toks_[j].text)) {
            --depth;
          }
          ++j;
        }
        loops_.emplace_back(body, j);
      }
    }
  }

  bool InLoop(size_t i) const {
    for (const auto& range : loops_) {
      if (i >= range.first && i < range.second) {
        return true;
      }
    }
    return false;
  }

  void OnBranch(size_t i) {
    size_t open = i + 1;
    if (open < end_ && toks_[open].text == "constexpr") {
      ++open;  // if constexpr: compile-time, not data-dependent.
    }
    if (open >= end_ || toks_[open].text != "(" || toks_[open].match < 0) {
      return;
    }
    const size_t close = static_cast<size_t>(toks_[open].match);
    auto names = NamesIn(open + 1, close);
    if (names.empty()) {
      return;
    }
    // A secret-guarded break/continue/return inside a loop makes the
    // iteration count secret-dependent: a timing channel, reported as
    // secret-loop-bound rather than a plain branch.
    if (toks_[i].text == "if" && InLoop(i)) {
      size_t body = close + 1;
      size_t body_end = body;
      if (body < end_ && toks_[body].text == "{" && toks_[body].match > 0) {
        body_end = static_cast<size_t>(toks_[body].match);
      } else {
        body_end = body;
        int depth = 0;
        while (body_end < end_ &&
               (depth > 0 || toks_[body_end].text != ";")) {
          if (IsOpenBracket(toks_[body_end].text)) {
            ++depth;
          } else if (IsCloseBracket(toks_[body_end].text)) {
            --depth;
          }
          ++body_end;
        }
      }
      for (size_t j = body; j < body_end && j < end_; ++j) {
        if (toks_[j].kind == Token::Kind::kIdent &&
            (toks_[j].text == "break" || toks_[j].text == "continue" ||
             toks_[j].text == "return")) {
          fn_->sites.push_back(
              {"secret-loop-bound", toks_[i].line, std::move(names), "",
               "loop early exit ('" + toks_[j].text +
                   "') guarded by secret data makes the iteration count "
                   "observable"});
          return;
        }
      }
    }
    fn_->sites.push_back({"secret-branch", toks_[i].line, std::move(names),
                          "",
                          "'" + toks_[i].text +
                              "' condition depends on secret data"});
  }

  void OnWhile(size_t i) {
    if (i + 1 >= end_ || toks_[i + 1].text != "(" ||
        toks_[i + 1].match < 0) {
      return;
    }
    auto names =
        NamesIn(i + 2, static_cast<size_t>(toks_[i + 1].match));
    if (names.empty()) {
      return;
    }
    fn_->sites.push_back(
        {"secret-loop-bound", toks_[i].line, std::move(names), "",
         "'while' condition depends on secret data (iteration count is "
         "timing-observable)"});
  }

  void OnFor(size_t i) {
    if (i + 1 >= end_ || toks_[i + 1].text != "(" ||
        toks_[i + 1].match < 0) {
      return;
    }
    const size_t open = i + 1;
    const size_t close = static_cast<size_t>(toks_[open].match);
    int depth = 0;
    size_t first = 0;
    size_t second = 0;
    size_t colon = 0;
    for (size_t j = open + 1; j < close; ++j) {
      const std::string& t = toks_[j].text;
      if (IsOpenBracket(t)) {
        ++depth;
      } else if (IsCloseBracket(t)) {
        --depth;
      } else if (t == ";" && depth == 0) {
        if (first == 0) {
          first = j;
        } else if (second == 0) {
          second = j;
        }
      } else if (t == ":" && depth == 0 && first == 0 && colon == 0) {
        colon = j;
      }
    }
    if (colon != 0 && first == 0) {
      // Range-for: `for (decl : expr)` assigns each element to decl.
      const std::string dst = DeclaredName(toks_, open + 1, colon);
      auto srcs = NamesIn(colon + 1, close);
      if (!dst.empty() && !srcs.empty()) {
        fn_->assigns.push_back(
            {dst, LooksLikeMember(dst), toks_[i].line, std::move(srcs)});
      }
      return;
    }
    if (first == 0 || second == 0) {
      return;
    }
    auto names = NamesIn(first + 1, second);
    if (names.empty()) {
      return;
    }
    fn_->sites.push_back(
        {"secret-loop-bound", toks_[i].line, std::move(names), "",
         "'for' loop bound depends on secret data (iteration count is "
         "timing-observable)"});
  }

  void OnTernary(size_t i) {
    size_t from = begin_;
    for (size_t j = i; j-- > begin_;) {
      const Token& tok = toks_[j];
      if (tok.text == ";" || tok.text == "{" || tok.text == "}" ||
          tok.text == "=" || tok.text == "," || tok.text == "return" ||
          tok.text == ":" || tok.text == "?") {
        from = j + 1;
        break;
      }
      if (IsOpenBracket(tok.text) && tok.match > static_cast<int>(i)) {
        from = j + 1;  // Opening bracket enclosing the ternary.
        break;
      }
      if (IsCloseBracket(tok.text) && tok.match >= 0) {
        j = static_cast<size_t>(tok.match) + 1;  // Skip bracketed group.
        continue;
      }
    }
    auto names = NamesIn(from, i);
    if (names.empty()) {
      return;
    }
    fn_->sites.push_back({"secret-branch", toks_[i].line, std::move(names),
                          "", "ternary condition depends on secret data"});
  }

  void OnEquality(size_t i) {
    auto boundary = [&](const Token& tok, bool left) {
      if (tok.text == "&&" || tok.text == "||" || tok.text == ";" ||
          tok.text == "," || tok.text == "?" || tok.text == ":" ||
          tok.text == "{" || tok.text == "}" || tok.text == "return" ||
          tok.text == "=") {
        return true;
      }
      if (left) {
        return IsOpenBracket(tok.text) && tok.match > static_cast<int>(i);
      }
      return IsCloseBracket(tok.text) && tok.match >= 0 &&
             tok.match < static_cast<int>(i);
    };
    // Null-pointer checks (`x == nullptr`, `p != NULL`) reveal pointer
    // validity, never secret content: not a compare site.
    if ((i > begin_ + 1 &&
         (toks_[i - 1].text == "nullptr" || toks_[i - 1].text == "NULL")) ||
        (i + 1 < end_ &&
         (toks_[i + 1].text == "nullptr" || toks_[i + 1].text == "NULL"))) {
      return;
    }
    // Balanced bracket groups on either side are skipped whole: a call
    // result compared with == is opaque here (a call ON a secret is the
    // sink machinery's business; reporting both would double up on
    // `memcmp(...) == 0`).
    std::vector<std::string> names;
    for (size_t j = i; j-- > begin_;) {
      const Token& tok = toks_[j];
      if (IsCloseBracket(tok.text) && tok.match >= 0 &&
          static_cast<size_t>(tok.match) < j) {
        j = static_cast<size_t>(tok.match);
        continue;
      }
      if (boundary(tok, /*left=*/true)) {
        break;
      }
      // `x.size()`: walking right-to-left we land on the accessor after
      // its () group was skipped; drop it and the base it hangs off, as
      // NamesIn does (structural metadata is a public parameter).
      if (tok.kind == Token::Kind::kIdent && IsSizeAccessor(tok.text) &&
          j + 1 < end_ && toks_[j + 1].text == "(" && j >= begin_ + 2 &&
          (toks_[j - 1].text == "." || toks_[j - 1].text == "->") &&
          toks_[j - 2].kind == Token::Kind::kIdent) {
        j -= 2;
        continue;
      }
      if (tok.kind == Token::Kind::kIdent && !IsKeyword(tok.text)) {
        names.push_back(tok.text);
      }
    }
    for (size_t j = i + 1; j < end_; ++j) {
      const Token& tok = toks_[j];
      if (IsOpenBracket(tok.text) && tok.match >= 0 &&
          static_cast<size_t>(tok.match) > j) {
        j = static_cast<size_t>(tok.match);
        continue;
      }
      if (boundary(tok, /*left=*/false)) {
        break;
      }
      if (tok.kind == Token::Kind::kIdent && j + 3 < end_ &&
          (toks_[j + 1].text == "." || toks_[j + 1].text == "->") &&
          IsSizeAccessor(toks_[j + 2].text) && toks_[j + 3].text == "(") {
        j += 2;  // Skip `x . size`; the () group is skipped above.
        continue;
      }
      if (tok.kind == Token::Kind::kIdent && !IsKeyword(tok.text)) {
        names.push_back(tok.text);
      }
    }
    if (names.empty()) {
      return;
    }
    fn_->sites.push_back(
        {"secret-compare", toks_[i].line, std::move(names), "",
         "early-exit '" + toks_[i].text +
             "' on secret data; use crypto::ConstantTimeEquals"});
  }

  void OnSubscript(size_t i) {
    if (toks_[i].match < 0 || i == begin_ || i == 0) {
      return;
    }
    const Token& prev = toks_[i - 1];
    // Attribute [[...]]: skip both brackets.
    if (prev.text == "[" || (i + 1 < end_ && toks_[i + 1].text == "[")) {
      return;
    }
    const bool is_subscript = prev.kind == Token::Kind::kIdent ||
                              prev.text == ")" || prev.text == "]";
    if (!is_subscript) {
      return;  // Lambda capture list.
    }
    auto names = NamesIn(i + 1, static_cast<size_t>(toks_[i].match));
    if (names.empty()) {
      return;
    }
    // `new T[n]`: a secret-dependent allocation size, not a subscript.
    if (prev.kind == Token::Kind::kIdent) {
      for (size_t j = i - 1; j-- > begin_ && j + 8 > i;) {
        const Token& back = toks_[j];
        if (back.kind == Token::Kind::kIdent) {
          if (back.text == "new") {
            fn_->sites.push_back(
                {"secret-alloc", toks_[i].line, std::move(names), "",
                 "secret-dependent 'new[]' size is observable through the "
                 "allocator"});
            return;
          }
          continue;
        }
        if (back.text != "::" && back.text != "<" && back.text != ">" &&
            back.text != "*") {
          break;
        }
      }
    }
    std::string container =
        prev.kind == Token::Kind::kIdent ? prev.text : "";
    fn_->sites.push_back(
        {"secret-index", toks_[i].line, std::move(names), container,
         "secret-dependent array subscript into non-secret container"});
  }

  void OnStream(size_t i) {
    bool shifted = false;
    std::vector<std::string> names;
    for (size_t j = i + 1; j < end_; ++j) {
      const std::string& t = toks_[j].text;
      if (t == ";") {
        break;
      }
      if (t == "<<") {
        shifted = true;
      }
      if (toks_[j].kind == Token::Kind::kIdent && !IsKeyword(t)) {
        names.push_back(t);
      }
    }
    if (!shifted || names.empty()) {
      return;
    }
    fn_->sites.push_back({"secret-log", toks_[i].line, std::move(names), "",
                          "secret value streamed to '" + toks_[i].text +
                              "'"});
  }

  void OnReturn(size_t i) {
    size_t stop = i + 1;
    int depth = 0;
    while (stop < end_ && (depth > 0 || toks_[stop].text != ";")) {
      if (IsOpenBracket(toks_[stop].text)) {
        ++depth;
      } else if (IsCloseBracket(toks_[stop].text)) {
        if (--depth < 0) {
          break;
        }
      }
      ++stop;
    }
    auto names = NamesIn(i + 1, stop);
    if (!names.empty()) {
      fn_->returns.push_back({toks_[i].line, std::move(names)});
    }
  }

  /// `base` heuristic for an lvalue token range: the first identifier
  /// followed by `[`/`.`/`->`, else the last identifier.
  std::string LvalueBase(size_t from, size_t to) const {
    std::string last;
    for (size_t j = from; j < to && j < end_; ++j) {
      if (toks_[j].kind != Token::Kind::kIdent || IsKeyword(toks_[j].text)) {
        continue;
      }
      if (j + 1 < to && (toks_[j + 1].text == "[" ||
                         toks_[j + 1].text == "." ||
                         toks_[j + 1].text == "->")) {
        return toks_[j].text;
      }
      last = toks_[j].text;
    }
    return last;
  }

  void OnCall(size_t i) {
    const size_t open = i + 1;
    const size_t close = static_cast<size_t>(toks_[open].match);
    CallFact call;
    call.callee = toks_[i].text;
    call.line = toks_[i].line;
    // Split arguments on top-level commas.
    std::vector<std::pair<size_t, size_t>> arg_ranges;
    {
      int depth = 0;
      size_t start = open + 1;
      for (size_t j = open + 1; j < close; ++j) {
        const std::string& t = toks_[j].text;
        if (IsOpenBracket(t)) {
          ++depth;
        } else if (IsCloseBracket(t)) {
          --depth;
        } else if (t == "," && depth == 0) {
          arg_ranges.emplace_back(start, j);
          start = j + 1;
        }
      }
      if (start < close) {
        arg_ranges.emplace_back(start, close);
      }
    }
    for (const auto& range : arg_ranges) {
      call.args.push_back(NamesIn(range.first, range.second));
    }
    // `SHPIR_ASSIGN_OR_RETURN(lhs, expr)` threads expr into lhs.
    if (call.callee == "SHPIR_ASSIGN_OR_RETURN" && arg_ranges.size() >= 2) {
      const std::string dst =
          LvalueBase(arg_ranges[0].first, arg_ranges[0].second);
      std::vector<std::string> srcs;
      for (size_t a = 1; a < call.args.size(); ++a) {
        for (const std::string& name : call.args[a]) {
          srcs.push_back(name);
        }
      }
      if (!dst.empty()) {
        fn_->assigns.push_back(
            {dst, LooksLikeMember(dst), call.line, std::move(srcs)});
        // Rebind the result of the first call inside expr to lhs so a
        // secret-returning callee taints it.
        for (size_t j = arg_ranges[1].first; j + 1 < arg_ranges[1].second;
             ++j) {
          if (toks_[j].kind == Token::Kind::kIdent &&
              !IsKeyword(toks_[j].text) && toks_[j + 1].text == "(" &&
              toks_[j + 1].match >= 0) {
            CallFact inner;
            inner.callee = toks_[j].text;
            inner.line = toks_[j].line;
            inner.dst = dst;
            inner.dst_is_member = LooksLikeMember(dst);
            fn_->calls.push_back(std::move(inner));
            break;
          }
        }
      }
      fn_->calls.push_back(std::move(call));
      return;
    }
    // Assignment / return context: walk back over the `obj.`/`ptr->`/
    // `Cls::` chain to see what receives the result. A link may be an
    // accessor call or a subscript (`a->b()->Call`, `a[i].Call`): step
    // over its balanced `(...)`/`[...]` to the identifier before it.
    size_t k = i;
    while (k >= begin_ + 2 && (toks_[k - 1].text == "." ||
                               toks_[k - 1].text == "->" ||
                               toks_[k - 1].text == "::")) {
      size_t link = k - 2;
      const Token& end = toks_[link];
      if ((end.text == ")" || end.text == "]") &&
          end.match > static_cast<int>(begin_)) {
        link = static_cast<size_t>(end.match) - 1;
      }
      if (toks_[link].kind != Token::Kind::kIdent ||
          IsKeyword(toks_[link].text)) {
        break;
      }
      k = link;
    }
    if (k > begin_) {
      const Token& prev = toks_[k - 1];
      if (prev.kind == Token::Kind::kPunct && prev.text == "=" &&
          k >= begin_ + 2) {
        const Token& lhs = toks_[k - 2];
        if (lhs.kind == Token::Kind::kIdent && !IsKeyword(lhs.text)) {
          call.dst = lhs.text;
          call.dst_is_member = LooksLikeMember(lhs.text);
        } else if (lhs.text == "]" && lhs.match >= 1 &&
                   toks_[static_cast<size_t>(lhs.match) - 1].kind ==
                       Token::Kind::kIdent) {
          call.dst = toks_[static_cast<size_t>(lhs.match) - 1].text;
          call.dst_is_member = LooksLikeMember(call.dst);
        }
      } else if (prev.kind == Token::Kind::kIdent && prev.text == "return") {
        call.in_return = true;
      }
    }
    fn_->calls.push_back(std::move(call));
  }

  void OnAssign(size_t i) {
    if (i == begin_ || i == 0) {
      return;
    }
    std::string lhs;
    const Token& prev = toks_[i - 1];
    if (prev.kind == Token::Kind::kIdent && !IsKeyword(prev.text)) {
      lhs = prev.text;
    } else if (prev.text == "]" && prev.match >= 1 &&
               toks_[static_cast<size_t>(prev.match) - 1].kind ==
                   Token::Kind::kIdent) {
      lhs = toks_[static_cast<size_t>(prev.match) - 1].text;
    }
    if (lhs.empty()) {
      return;
    }
    auto srcs = NamesIn(i + 1, RhsEnd(i + 1));
    if (srcs.empty()) {
      return;
    }
    fn_->assigns.push_back(
        {lhs, LooksLikeMember(lhs), toks_[i].line, std::move(srcs)});
  }

  const std::vector<Token>& toks_;
  const size_t begin_;
  const size_t end_;
  FunctionFact* fn_;
  const bool file_scope_;
  std::vector<std::pair<size_t, size_t>> loops_;
};

void ParseParams(const std::vector<Token>& toks, size_t open, size_t close,
                 FunctionFact* fn) {
  std::vector<std::pair<size_t, size_t>> ranges;
  int depth = 0;
  int angle = 0;
  size_t start = open + 1;
  for (size_t j = open + 1; j < close; ++j) {
    const std::string& t = toks[j].text;
    if (IsOpenBracket(t)) {
      ++depth;
    } else if (IsCloseBracket(t)) {
      --depth;
    } else if (t == "<") {
      ++angle;
    } else if (t == ">") {
      angle = std::max(0, angle - 1);
    } else if (t == ">>") {
      angle = std::max(0, angle - 2);
    } else if (t == "," && depth == 0 && angle == 0) {
      ranges.emplace_back(start, j);
      start = j + 1;
    }
  }
  if (start < close) {
    ranges.emplace_back(start, close);
  }
  for (const auto& range : ranges) {
    // Name: last angle-depth-0 identifier before any `=` default.
    std::string name;
    bool secret = false;
    int a = 0;
    for (size_t j = range.first; j < range.second; ++j) {
      const Token& tok = toks[j];
      if (tok.text == "<") {
        ++a;
        continue;
      }
      if (tok.text == ">") {
        a = std::max(0, a - 1);
        continue;
      }
      if (tok.text == ">>") {
        a = std::max(0, a - 2);
        continue;
      }
      if (tok.text == "=" && a == 0) {
        break;
      }
      if (tok.kind == Token::Kind::kIdent) {
        if (tok.text == "SHPIR_SECRET" ||
            (tok.text == "Secret" && j + 1 < range.second &&
             toks[j + 1].text == "<")) {
          secret = true;
        }
        if (a == 0) {
          name = tok.text;
        }
      }
    }
    fn->params.push_back(name);
    if (secret && !name.empty()) {
      fn->secret_params.push_back(static_cast<int>(fn->params.size()) - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Serialization (cache format)
// ---------------------------------------------------------------------------

void PutString(std::ostringstream& out, const std::string& s) {
  out << s.size() << ':' << s;
}

void PutNames(std::ostringstream& out, const std::vector<std::string>& v) {
  out << v.size() << ';';
  for (const std::string& s : v) {
    PutString(out, s);
  }
}

class FactsReader {
 public:
  explicit FactsReader(const std::string& blob) : blob_(blob) {}

  bool ok() const { return ok_; }

  long Int() {
    long v = 0;
    bool neg = false;
    if (pos_ < blob_.size() && blob_[pos_] == '-') {
      neg = true;
      ++pos_;
    }
    size_t digits = 0;
    while (pos_ < blob_.size() && blob_[pos_] >= '0' && blob_[pos_] <= '9') {
      v = v * 10 + (blob_[pos_] - '0');
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      ok_ = false;
    }
    return neg ? -v : v;
  }

  bool Expect(char c) {
    if (pos_ < blob_.size() && blob_[pos_] == c) {
      ++pos_;
      return true;
    }
    ok_ = false;
    return false;
  }

  std::string String() {
    const long len = Int();
    if (!Expect(':') || len < 0 ||
        pos_ + static_cast<size_t>(len) > blob_.size()) {
      ok_ = false;
      return "";
    }
    std::string s = blob_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }

  std::vector<std::string> Names() {
    std::vector<std::string> v;
    const long n = Int();
    if (!Expect(';') || n < 0 || n > 1'000'000) {
      ok_ = false;
      return v;
    }
    for (long i = 0; i < n && ok_; ++i) {
      v.push_back(String());
    }
    return v;
  }

 private:
  const std::string& blob_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void PutFunction(std::ostringstream& out, const FunctionFact& fn) {
  PutString(out, fn.name);
  PutString(out, fn.cls);
  out << fn.line << ';';
  PutNames(out, fn.params);
  out << fn.secret_params.size() << ';';
  for (int p : fn.secret_params) {
    out << p << ';';
  }
  PutNames(out, fn.local_roots);
  out << fn.assigns.size() << ';';
  for (const AssignFact& a : fn.assigns) {
    PutString(out, a.dst);
    out << (a.dst_is_member ? 1 : 0) << ';' << a.line << ';';
    PutNames(out, a.srcs);
  }
  out << fn.calls.size() << ';';
  for (const CallFact& c : fn.calls) {
    PutString(out, c.callee);
    out << c.line << ';' << c.args.size() << ';';
    for (const auto& arg : c.args) {
      PutNames(out, arg);
    }
    PutString(out, c.dst);
    out << (c.dst_is_member ? 1 : 0) << ';' << (c.in_return ? 1 : 0) << ';';
  }
  out << fn.returns.size() << ';';
  for (const ReturnFact& r : fn.returns) {
    out << r.line << ';';
    PutNames(out, r.names);
  }
  out << fn.sites.size() << ';';
  for (const SiteFact& s : fn.sites) {
    PutString(out, s.rule);
    out << s.line << ';';
    PutNames(out, s.names);
    PutString(out, s.container);
    PutString(out, s.message);
  }
}

bool ReadFunction(FactsReader& in, FunctionFact* fn) {
  fn->name = in.String();
  fn->cls = in.String();
  fn->line = static_cast<int>(in.Int());
  in.Expect(';');
  fn->params = in.Names();
  long n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    fn->secret_params.push_back(static_cast<int>(in.Int()));
    in.Expect(';');
  }
  fn->local_roots = in.Names();
  n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    AssignFact a;
    a.dst = in.String();
    a.dst_is_member = in.Int() != 0;
    in.Expect(';');
    a.line = static_cast<int>(in.Int());
    in.Expect(';');
    a.srcs = in.Names();
    fn->assigns.push_back(std::move(a));
  }
  n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    CallFact c;
    c.callee = in.String();
    c.line = static_cast<int>(in.Int());
    in.Expect(';');
    const long args = in.Int();
    in.Expect(';');
    for (long a = 0; a < args && in.ok(); ++a) {
      c.args.push_back(in.Names());
    }
    c.dst = in.String();
    c.dst_is_member = in.Int() != 0;
    in.Expect(';');
    c.in_return = in.Int() != 0;
    in.Expect(';');
    fn->calls.push_back(std::move(c));
  }
  n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    ReturnFact r;
    r.line = static_cast<int>(in.Int());
    in.Expect(';');
    r.names = in.Names();
    fn->returns.push_back(std::move(r));
  }
  n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    SiteFact s;
    s.rule = in.String();
    s.line = static_cast<int>(in.Int());
    in.Expect(';');
    s.names = in.Names();
    s.container = in.String();
    s.message = in.String();
    fn->sites.push_back(std::move(s));
  }
  return in.ok();
}

}  // namespace

FileFacts ExtractFacts(const std::string& path, const LexedFile& lexed) {
  FileFacts facts;
  facts.path = path;
  facts.is_header =
      (path.size() >= 2 &&
       path.compare(path.size() - 2, 2, ".h") == 0) ||
      (path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0);
  facts.allows = lexed.allows;
  facts.lex_findings = lexed.lex_findings;

  const std::vector<Token>& toks = lexed.tokens;
  const std::vector<ClassRange> classes = FindClassRanges(toks);

  // Pass 1: function definitions (skipping candidates inside an already
  // recognized body — a nested local definition stays attributed to its
  // enclosing function).
  struct FnRange {
    size_t open;   // '(' of the parameter list.
    size_t body;   // '{'.
    size_t close;  // matching '}'.
  };
  std::vector<std::pair<FnRange, FunctionFact>> fns;
  size_t body_end = 0;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (i < body_end) {
      continue;
    }
    if (toks[i].text != "(" || toks[i].match < 0 ||
        toks[i - 1].kind != Token::Kind::kIdent ||
        IsKeyword(toks[i - 1].text)) {
      continue;
    }
    const int body = FunctionBodyBrace(toks, i);
    if (body < 0 || toks[static_cast<size_t>(body)].match < 0) {
      continue;
    }
    FunctionFact fn;
    fn.name = toks[i - 1].text;
    fn.line = toks[i - 1].line;
    if (i >= 3 && toks[i - 2].text == "::" &&
        toks[i - 3].kind == Token::Kind::kIdent) {
      fn.cls = toks[i - 3].text;
    } else {
      for (const ClassRange& cls : classes) {
        if (i > cls.begin && i < cls.end) {
          fn.cls = cls.name;  // Innermost wins (later ranges are inner).
        }
      }
    }
    ParseParams(toks, i, static_cast<size_t>(toks[i].match), &fn);
    FnRange range{i, static_cast<size_t>(body),
                  static_cast<size_t>(toks[static_cast<size_t>(body)].match)};
    body_end = range.close;
    fns.emplace_back(range, std::move(fn));
  }

  // Pass 2: body facts per function; everything else is file scope.
  std::vector<char> in_function(toks.size(), 0);
  for (auto& [range, fn] : fns) {
    BodyWalker walker(toks, range.body + 1, range.close, &fn);
    walker.Walk();
    for (size_t j = range.open; j <= range.close && j < toks.size(); ++j) {
      in_function[j] = 1;
    }
    facts.functions.push_back(std::move(fn));
  }

  // Pass 3: file-scope declarations (and stray file-scope facts, walked
  // over synthetic gap ranges so bracket spans stay local).
  facts.file_scope.name = "<file-scope>";
  size_t gap_start = 0;
  auto flush_gap = [&](size_t gap_end) {
    if (gap_start < gap_end) {
      BodyWalker walker(toks, gap_start, gap_end, &facts.file_scope,
                        /*file_scope=*/true);
      walker.Walk();
    }
  };
  for (auto& [range, fn] : fns) {
    (void)fn;
    flush_gap(range.open);
    gap_start = range.close + 1;
  }
  flush_gap(toks.size());

  // File-scope Secret/SHPIR_SECRET declarations: global roots when they
  // appear in a header, file-wide roots in a .cc file. (The walker above
  // already collected them into file_scope.local_roots.)
  for (const std::string& name : facts.file_scope.local_roots) {
    if (facts.is_header) {
      facts.header_secrets.push_back(name);
    } else {
      facts.file_roots.push_back(name);
    }
  }
  facts.file_scope.local_roots.clear();
  return facts;
}

std::string SerializeFacts(const FileFacts& facts) {
  std::ostringstream out;
  out << "shpir-lint-facts " << kFactsFormatVersion << '\n';
  out << (facts.is_header ? 1 : 0) << ';';
  PutNames(out, facts.header_secrets);
  PutNames(out, facts.file_roots);
  PutFunction(out, facts.file_scope);
  out << facts.functions.size() << ';';
  for (const FunctionFact& fn : facts.functions) {
    PutFunction(out, fn);
  }
  out << facts.allows.size() << ';';
  for (const auto& [line, allow] : facts.allows) {
    out << line << ';';
    PutNames(out, std::vector<std::string>(allow.rules.begin(),
                                           allow.rules.end()));
    PutString(out, allow.reason);
  }
  out << facts.lex_findings.size() << ';';
  for (const Finding& finding : facts.lex_findings) {
    out << finding.line << ';';
    PutString(out, finding.rule);
    PutString(out, finding.message);
  }
  return out.str();
}

bool DeserializeFacts(const std::string& blob, FileFacts* out) {
  std::ostringstream header;
  header << "shpir-lint-facts " << kFactsFormatVersion << '\n';
  const std::string expected = header.str();
  if (blob.compare(0, expected.size(), expected) != 0) {
    return false;
  }
  const std::string payload = blob.substr(expected.size());
  FactsReader in(payload);
  out->is_header = in.Int() != 0;
  in.Expect(';');
  out->header_secrets = in.Names();
  out->file_roots = in.Names();
  if (!ReadFunction(in, &out->file_scope)) {
    return false;
  }
  long n = in.Int();
  in.Expect(';');
  if (n < 0 || n > 1'000'000) {
    return false;
  }
  for (long i = 0; i < n && in.ok(); ++i) {
    FunctionFact fn;
    if (!ReadFunction(in, &fn)) {
      return false;
    }
    out->functions.push_back(std::move(fn));
  }
  n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    const int line = static_cast<int>(in.Int());
    in.Expect(';');
    Suppression allow;
    for (const std::string& rule : in.Names()) {
      allow.rules.insert(rule);
    }
    allow.reason = in.String();
    allow.has_reason = !allow.reason.empty();
    out->allows[line] = std::move(allow);
  }
  n = in.Int();
  in.Expect(';');
  for (long i = 0; i < n && in.ok(); ++i) {
    Finding finding;
    finding.line = static_cast<int>(in.Int());
    in.Expect(';');
    finding.rule = in.String();
    finding.message = in.String();
    out->lex_findings.push_back(std::move(finding));
  }
  return in.ok();
}

}  // namespace shpir::lint
