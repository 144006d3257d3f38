// simlint source model and count inventory, shared by every analyzer.
//
// The driver lexes each file once (lex()) into a SourceFile whose lines
// carry four views of the text:
//
//   code      comments removed, string/character literals kept (include
//             targets live inside literals);
//   bare      comments removed and literals blanked to a single space, so
//             rule regexes and brace trackers only ever see real code;
//   allow     the rules a `// simlint:allow(a, b)` directive on this line or
//             the line above silences (parsed from the raw text);
//   disabled  true inside an `#if 0` / `#if false` region (directive lines
//             included), which no analyzer reads.
//
// The hot-path and shared-state analyzers also record what they count in
// one (file, rule) -> count inventory (Counts). report_json() writes it as
// the deterministic report; diff_baseline() gates it against a checked-in
// report (tools/lint_baseline.json): any per-(file, rule) increase is a
// `baseline-regression` finding. Allowed sites count too — the report is
// the budget, the lint findings are the gate.
#pragma once

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scion::lint {

struct Finding {
  std::string file;
  int line{0};
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Every rule a finding can carry, in the order the driver's usage lists
/// them: determinism (simlint_core.hpp), include graph
/// (simlint_includes.hpp), hot-path cost (simlint_hotpath.hpp), shared
/// state (simlint_state.hpp), and the inventory gate (this file).
inline const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames{
      "wall-clock",     "std-rng",          "unordered-iter",
      "float-accum",    "raw-output",       "raw-thread",
      "layering",       "module-cycle",     "hot-alloc",
      "hot-string",     "hot-copy-arg",     "hot-map-lookup",
      "hot-unlabeled-schedule",             "mutable-global",
      "unguarded-shared",                   "baseline-regression"};
  return kNames;
}

struct SourceLine {
  std::string code;
  std::string bare;
  std::vector<std::string> allow;
  bool disabled{false};

  bool allows(std::string_view rule) const {
    return std::find(allow.begin(), allow.end(), rule) != allow.end();
  }
};

struct SourceFile {
  std::string name;
  std::string stem;  // path minus extension: groups foo.hpp with foo.cpp
  std::vector<SourceLine> lines;
};

namespace detail {

inline std::vector<std::string> split_lines(std::string_view content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(content.substr(start));
      break;
    }
    lines.emplace_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Path stem ("src/bgp/speaker.cpp" -> "src/bgp/speaker").
inline std::string stem_of(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string_view::npos ||
      (slash != std::string_view::npos && dot < slash)) {
    return std::string{path};
  }
  return std::string{path.substr(0, dot)};
}

/// Rules allowed by a `simlint:allow(a,b)` directive on this line, if any.
inline std::vector<std::string> allowed_rules(std::string_view line) {
  std::vector<std::string> out;
  const std::size_t pos = line.find("simlint:allow(");
  if (pos == std::string_view::npos) return out;
  const std::size_t open = pos + std::string_view{"simlint:allow("}.size();
  const std::size_t close = line.find(')', open);
  if (close == std::string_view::npos) return out;
  std::string name;
  for (char c : line.substr(open, close - open)) {
    if (c == ',') {
      if (!name.empty()) out.push_back(std::move(name));
      name.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name.push_back(c);
    }
  }
  if (!name.empty()) out.push_back(std::move(name));
  return out;
}

/// Multi-line lexical state carried between lex_line() calls.
struct LexState {
  bool in_block_comment{false};
  bool in_raw_string{false};
  std::string raw_delim;
};

/// Fills `out.code` and `out.bare` from one raw line. Handles // and /* */
/// comments (the latter across lines), "..." with escapes,
/// R"delim(...)delim" raw strings (across lines), '...' character literals,
/// and leaves digit separators (1'000'000) alone.
inline void lex_line(std::string_view line, LexState& st, SourceLine& out) {
  std::size_t i = 0;
  const std::size_t n = line.size();
  const auto literal = [&](std::size_t end) {  // the literal is [i, end)
    out.code.append(line.substr(i, end - i));
    out.bare.push_back(' ');
    i = end;
  };
  const auto word_char = [&](std::size_t k) {
    return std::isalnum(static_cast<unsigned char>(line[k])) || line[k] == '_';
  };
  if (st.in_block_comment) {
    const std::size_t close = line.find("*/");
    if (close == std::string_view::npos) return;
    i = close + 2;
    st.in_block_comment = false;
  } else if (st.in_raw_string) {
    const std::string end = ")" + st.raw_delim + "\"";
    const std::size_t close = line.find(end);
    if (close == std::string_view::npos) {
      out.code = line;
      return;
    }
    st.in_raw_string = false;
    literal(close + end.size());
  }
  while (i < n) {
    const char c = line[i];
    if (c == '/' && i + 1 < n && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < n && line[i + 1] == '*') {
      const std::size_t close = line.find("*/", i + 2);
      if (close == std::string_view::npos) {
        st.in_block_comment = true;
        return;
      }
      i = close + 2;
      out.code.push_back(' ');
      out.bare.push_back(' ');
      continue;
    }
    if (c == '"' && i > 0 && line[i - 1] == 'R' &&
        (i < 2 || !word_char(i - 2))) {
      const std::size_t paren = line.find('(', i + 1);
      if (paren == std::string_view::npos) {  // malformed: drop the rest
        out.code.append(line.substr(i));
        return;
      }
      const std::string delim{line.substr(i + 1, paren - i - 1)};
      const std::size_t close = line.find(")" + delim + "\"", paren + 1);
      if (close == std::string_view::npos) {  // continues on later lines
        out.code.append(line.substr(i));
        st.in_raw_string = true;
        st.raw_delim = delim;
        return;
      }
      literal(close + delim.size() + 2);
      continue;
    }
    // A quote after an identifier/digit character is a digit separator
    // (1'000'000) or part of a literal suffix, not a character literal.
    if (c == '"' || (c == '\'' && (i == 0 || !word_char(i - 1)))) {
      std::size_t j = i + 1;
      while (j < n && line[j] != c) {
        if (line[j] == '\\') ++j;
        ++j;
      }
      literal(j < n ? j + 1 : n);
      continue;
    }
    out.code.push_back(c);
    out.bare.push_back(c);
    ++i;
  }
}

/// True if `code` is a preprocessor directive of the given kind ("if",
/// "ifdef", "ifndef", "elif", "else", "endif", "include"); `rest` receives
/// the text after the directive name.
inline bool is_pp(std::string_view code, std::string_view kind,
                  std::string* rest = nullptr) {
  std::size_t i = 0;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  if (i >= code.size() || code[i] != '#') return false;
  ++i;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  if (code.substr(i, kind.size()) != kind) return false;
  const std::size_t end = i + kind.size();
  if (end < code.size() && (std::isalnum(static_cast<unsigned char>(code[end])) ||
                            code[end] == '_')) {
    return false;  // e.g. "#ifdef" is not "#if"
  }
  if (rest != nullptr) *rest = std::string{code.substr(end)};
  return true;
}

/// True if the #if condition text disables the region outright (`0`/`false`).
inline bool disabled_condition(std::string_view rest) {
  std::size_t b = 0, e = rest.size();
  while (b < e && std::isspace(static_cast<unsigned char>(rest[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(rest[e - 1]))) --e;
  const std::string_view cond = rest.substr(b, e - b);
  return cond == "0" || cond == "false";
}

}  // namespace detail

/// Lexes one file into the shared source model.
inline SourceFile lex(std::string name, std::string_view content) {
  using namespace detail;
  SourceFile file{std::move(name), {}, {}};
  file.stem = stem_of(file.name);
  LexState st;
  int disabled_depth = 0;  // nesting depth inside an `#if 0` region
  std::vector<std::string> above;  // allow directive of the previous line
  for (const std::string& raw : split_lines(content)) {
    SourceLine& line = file.lines.emplace_back();
    lex_line(raw, st, line);
    std::vector<std::string> own = allowed_rules(raw);
    line.allow = above;
    line.allow.insert(line.allow.end(), own.begin(), own.end());
    above = std::move(own);
    // Inner #if blocks nest; `#else`/`#elif` of the disabling #if
    // re-enables.
    std::string cond;
    if (disabled_depth > 0) {
      line.disabled = true;
      if (is_pp(line.bare, "if") || is_pp(line.bare, "ifdef") ||
          is_pp(line.bare, "ifndef")) {
        ++disabled_depth;
      } else if (is_pp(line.bare, "endif")) {
        --disabled_depth;
      } else if (disabled_depth == 1 && (is_pp(line.bare, "else") ||
                                         is_pp(line.bare, "elif"))) {
        disabled_depth = 0;
      }
    } else if (is_pp(line.bare, "if", &cond) && disabled_condition(cond)) {
      line.disabled = true;
      disabled_depth = 1;
    }
  }
  return file;
}

/// Per stem group, the names group 1 of `decl` captures in the bare text of
/// the corpus (matches may span lines). Members (trailing '_') are visible
/// corpus-wide, other names only within the stem group declaring them.
inline std::map<std::string, std::set<std::string>> scoped_names(
    const std::vector<SourceFile>& files, const std::regex& decl) {
  std::set<std::string> members;
  std::map<std::string, std::set<std::string>> by_stem;
  for (const SourceFile& file : files) {
    std::string text;
    for (const SourceLine& line : file.lines) {
      if (!line.disabled) text += line.bare;
      text += '\n';
    }
    std::set<std::string>& local = by_stem[file.stem];
    for (std::sregex_iterator it{text.begin(), text.end(), decl}, end;
         it != end; ++it) {
      const std::string id = (*it)[1].str();
      if (id.ends_with('_')) members.insert(id);
      local.insert(id);
    }
  }
  for (auto& [stem, names] : by_stem) {
    names.insert(members.begin(), members.end());
  }
  return by_stem;
}

/// file -> rule -> count of every site a counted rule matched.
using Counts = std::map<std::string, std::map<std::string, int>>;

/// Adds one to (file, rule). Every rule of the counting analyzer's
/// `family` is listed for the file (zero when unseen), so report rows have
/// a fixed shape.
inline void tally(Counts& counts, const std::string& file,
                  const std::vector<std::string>& family,
                  const std::string& rule) {
  std::map<std::string, int>& row = counts[file];
  for (const std::string& r : family) row.try_emplace(r, 0);
  ++row[rule];
}

/// The inventory as deterministic JSON: files and rules sorted by name.
inline std::string report_json(const Counts& counts) {
  std::string out = "{\n  \"version\": 2,\n  \"files\": [";
  const char* sep = "\n";
  for (const auto& [file, rules] : counts) {
    out += sep;
    sep = ",\n";
    out += "    {\"file\": \"";
    for (char c : file) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out += "\", \"counts\": {";
    const char* rule_sep = "";
    for (const auto& [rule, n] : rules) {
      out += rule_sep + ("\"" + rule + "\": ") + std::to_string(n);
      rule_sep = ", ";
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

/// Compares the inventory against a baseline (an earlier report_json()).
/// Any count above its baseline entry (absent entries count as zero) is a
/// `baseline-regression` finding naming the file, the rule, and both
/// counts. `hot-lines` and `guarded-member` are ungated: more annotated
/// code is progress.
inline std::vector<Finding> diff_baseline(const Counts& counts,
                                          const std::string& baseline_json) {
  // A fixed shape we emitted ourselves, so a targeted scan (not a general
  // JSON parser) is reliable.
  static const std::regex kFileEntry{
      R"re("file":\s*"((?:[^"\\]|\\.)*)"[^{}]*"counts":\s*\{([^}]*)\})re"};
  static const std::regex kRuleCount{R"re("([a-z-]+)":\s*(\d+))re"};
  Counts base;
  for (std::sregex_iterator it{baseline_json.begin(), baseline_json.end(),
                               kFileEntry},
       end;
       it != end; ++it) {
    std::string file;  // un-escape what report_json() escapes
    const std::string escaped = (*it)[1].str();
    for (std::size_t i = 0; i < escaped.size(); ++i) {
      if (escaped[i] == '\\' && i + 1 < escaped.size()) ++i;
      file.push_back(escaped[i]);
    }
    const std::string rules = (*it)[2].str();
    for (std::sregex_iterator rt{rules.begin(), rules.end(), kRuleCount};
         rt != end; ++rt) {
      base[file][(*rt)[1].str()] = std::stoi((*rt)[2].str());
    }
  }
  std::vector<Finding> findings;
  for (const auto& [file, rules] : counts) {
    for (const auto& [rule, n] : rules) {
      if (rule == "hot-lines" || rule == "guarded-member") continue;
      const int was = base[file][rule];
      if (n <= was) continue;
      findings.push_back(Finding{
          file, 0, "baseline-regression",
          rule + " count " + std::to_string(n) + " exceeds baseline " +
              std::to_string(was) +
              "; remove the new site or regenerate the baseline "
              "deliberately (see DESIGN.md)"});
    }
  }
  return findings;
}

}  // namespace scion::lint
