// simlint shared-state analyzer — the mutable-state inventory for parallel
// execution.
//
// ROADMAP item 2 shards the serial event loop across workers; before that
// lands, "what mutable state is shared, and under which lock?" must be a
// machine-checked inventory, not tribal knowledge. Clang Thread Safety
// Analysis (src/util/thread_safety.hpp) proves lock protocols wherever a
// Clang toolchain builds the tree; this analyzer is the
// toolchain-independent half, enforcing two rules on the source text:
//
//   mutable-global    non-const namespace-scope state, and `static` /
//                     `thread_local` mutable variables at any scope
//                     (including #define bodies, so macro-generated statics
//                     are caught). Every process-wide mutable object is a
//                     shared-state hazard the moment the event loop runs on
//                     more than one thread, so each one must be on the
//                     built-in allowlist (the interned metric/label
//                     registries' magic statics) or carry a
//                     `// simlint:allow(mutable-global)` directive whose
//                     comment says why it is safe.
//   unguarded-shared  a class that owns a mutex declares a lock protocol;
//                     every mutable data member it owns must then carry a
//                     SCION_GUARDED_BY / SCION_PT_GUARDED_BY annotation (or
//                     an allow directive explaining why it needs none).
//                     Without the annotation the Clang analysis verifies
//                     nothing about that member, silently.
//
// The full inventory — including allowlisted and simlint:allow-suppressed
// sites, plus a fixed, ungated `guarded-member` count of annotated members —
// goes into the lint inventory (simlint_source.hpp): the driver's
// --report=PATH writes it and --baseline=PATH diffs it against the
// checked-in tools/lint_baseline.json, where any per-(file, rule) count
// increase is a `baseline-regression` finding, exactly like the hot-path
// cost counts. New shared state therefore cannot land by accident; it lands
// by regenerating the baseline in the same change that argues for it (see
// DESIGN.md "Concurrency discipline").
//
// Scanning is a per-line state machine over the bare lines of the source
// model (comments and string / character literals blanked, so braces and
// keywords inside literals — e.g. the JSON emitters in this very directory
// — never confuse scope tracking), skips `#if 0` regions, and honours allow
// directives on the offending line or the line above. Known, accepted
// imprecision of a line scanner:
// `static const char* p` (mutable pointer to const pointee) passes the
// const test, and scope classification is lexical (the keyword preceding
// the opening brace).
#pragma once

#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/simlint_source.hpp"

namespace scion::lint {

/// (file suffix, variable name) pairs the mutable-global rule exempts.
using Allowlist = std::vector<std::pair<std::string, std::string>>;

/// Built-in allowlist for the mutable-global rule: the sanctioned magic
/// statics — the interned metric/label registries that anchor the
/// telemetry layer. Anything else justifies itself with an in-source
/// `// simlint:allow(mutable-global)` directive, so the reasoning lives
/// next to the declaration.
inline const Allowlist& default_state_allowlist() {
  static const Allowlist kAllow{
      {"src/obs/event_profile.cpp", "profiler"},  // EventProfiler::global()
      {"src/obs/metrics.cpp", "registry"},        // MetricsRegistry::global()
      {"src/obs/profile.cpp", "profiler"},        // PhaseProfiler::global()
  };
  return kAllow;
}

/// Counted rules; `guarded-member` counts the annotated members.
inline const std::vector<std::string>& state_rules() {
  static const std::vector<std::string> kRules{
      "guarded-member", "mutable-global", "unguarded-shared"};
  return kRules;
}

namespace state_detail {

/// Lexical scope kinds for brace tracking. The file's top level counts as
/// namespace scope.
enum class ScopeKind { kNamespace, kClass, kBlock };

/// Classifies the scope a `{` opens from the code text between the previous
/// `;`/brace boundary and the brace itself.
inline ScopeKind classify_open(std::string_view before) {
  static const std::regex kNamespace{R"(\bnamespace\b)"};
  static const std::regex kClass{R"(\b(?:class|struct|union|enum)\b)"};
  const std::string s{before};
  if (std::regex_search(s, kNamespace)) return ScopeKind::kNamespace;
  if (std::regex_search(s, kClass)) return ScopeKind::kClass;
  return ScopeKind::kBlock;
}

/// First identifier-ish token of the line ("" when none).
inline std::string first_word(std::string_view code) {
  std::size_t i = 0;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  std::size_t j = i;
  while (j < code.size() &&
         (std::isalnum(static_cast<unsigned char>(code[j])) ||
          code[j] == '_')) {
    ++j;
  }
  return std::string{code.substr(i, j - i)};
}

/// Keywords that open lines which are never the variable declarations the
/// mutable-global / unguarded-shared rules consider.
inline bool keyword_line(const std::string& word) {
  static const std::set<std::string> kKeywords{
      "break",    "case",     "catch",    "class",     "concept",
      "continue", "delete",   "do",       "else",      "enum",
      "explicit", "for",      "friend",   "goto",      "if",
      "namespace", "new",     "operator", "private",   "protected",
      "public",   "requires", "return",   "sizeof",    "struct",
      "switch",   "template", "throw",    "try",       "typedef",
      "typename", "union",    "using",    "while"};
  return kKeywords.contains(word);
}

/// Last identifier token in `decl` — the declared variable name for the
/// declaration shapes this analyzer matches.
inline std::string last_identifier(std::string_view decl) {
  static const std::regex kIdent{R"([A-Za-z_]\w*)"};
  const std::string s{decl};
  std::string last;
  for (std::sregex_iterator it{s.begin(), s.end(), kIdent}, end; it != end;
       ++it) {
    last = it->str();
  }
  return last;
}

/// const / constexpr exempt a declaration from both rules. constinit does
/// NOT: it promises constant *initialization*; the object stays mutable.
inline bool has_const_token(std::string_view decl) {
  static const std::regex kConst{R"(\b(?:const|constexpr)\b)"};
  return std::regex_search(std::string{decl}, kConst);
}

/// The declaration text from `from` to its terminator (`;`, `=`, `{`), or
/// "" when a `(` intervenes first (a function, not a variable) or no
/// terminator exists. SCION_* annotation macros are stripped before the
/// paren test so annotated members still classify as variables; template
/// argument lists are skipped so their punctuation cannot misfire.
inline std::string decl_before_terminator(std::string_view text,
                                          std::size_t from) {
  static const std::regex kAnnotation{R"(SCION_[A-Z_]+\s*\([^()]*\))"};
  static const std::regex kBareAnnotation{R"(\bSCION_[A-Z_]+\b)"};
  static const std::regex kOperator{R"(\boperator\b)"};
  std::string s =
      std::regex_replace(std::string{text.substr(from)}, kAnnotation, " ");
  s = std::regex_replace(s, kBareAnnotation, " ");
  if (std::regex_search(s, kOperator)) return "";  // operator=: a function
  int angle = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle > 0) continue;
    if (c == '(') return "";
    if (c == ';' || c == '{') return s.substr(0, i);
    if (c == '=' && (i + 1 >= s.size() || s[i + 1] != '=')) {
      return s.substr(0, i);
    }
  }
  return "";
}

/// Owned-mutex member test for the unguarded-shared rule: a non-pointer,
/// non-reference mutex member is what declares the class's lock protocol.
inline bool is_mutex_member(std::string_view decl) {
  static const std::regex kMutex{
      R"(\b(?:std::)?(?:mutex|timed_mutex|recursive_mutex|shared_mutex)\b)"
      R"(|\b(?:util::)?Mutex\b)"};
  if (!std::regex_search(std::string{decl}, kMutex)) return false;
  return decl.find('&') == std::string_view::npos &&
         decl.find('*') == std::string_view::npos;
}

/// Synchronization-primitive members are themselves exempt from
/// unguarded-shared (they ARE the guard).
inline bool is_sync_member(std::string_view decl) {
  static const std::regex kSync{
      R"(\b(?:std::)?(?:mutex|timed_mutex|recursive_mutex|shared_mutex)"
      R"(|condition_variable(?:_any)?)\b|\b(?:util::)?(?:Mutex|CondVar)\b)"};
  return std::regex_search(std::string{decl}, kSync);
}

/// Scans one file: appends its unsuppressed findings and tallies every
/// site (allowlisted and allowed ones included) into `counts`.
inline void scan_state(const SourceFile& file, const Allowlist& allowlist,
                       Counts& counts, std::vector<Finding>& findings) {
  // static / thread_local declarator, any scope.
  static const std::regex kStatic{R"(\b(static|thread_local)\b)"};
  // Namespace-scope declaration: optional specifier run, a type token
  // (qualified id, optional template arguments), declarator punctuation,
  // then the variable name and an initializer or `;`.
  static const std::regex kNsDecl{
      R"(^\s*((?:(?:inline|extern|static|thread_local|constinit|constexpr|const|mutable|volatile)\s+)*))"
      R"((?:::)?[A-Za-z_][\w:]*(?:\s*<[^;]*>)?(?:\s*[*&]|\s)+)"
      R"([A-Za-z_]\w*(?:\[\w*\])?\s*(?:=[^=]|\{|;))"};

  const std::string& name = file.name;
  const auto allowlisted = [&](const std::string& var) {
    for (const auto& [file_suffix, entry] : allowlist) {
      if (entry == var && name.ends_with(file_suffix)) return true;
    }
    return false;
  };

  // Scope stack; the top level is namespace scope. Class scopes collect the
  // member declarations at their immediate depth and are evaluated for
  // unguarded-shared when the scope closes (the mutex member may be
  // declared after the members it guards).
  struct ClassScope {
    int body_depth{0};
    struct Member {
      int line{0};
      std::string decl;       // joined declaration text, annotations stripped
      bool annotated{false};  // carried SCION_GUARDED_BY / SCION_PT_GUARDED_BY
      bool allowed{false};    // simlint:allow(unguarded-shared)
    };
    std::vector<Member> members;
    bool owns_mutex{false};
  };
  std::vector<ScopeKind> scopes{ScopeKind::kNamespace};
  std::vector<ClassScope> class_scopes;
  int depth = 0;

  int paren_depth = 0;  // unclosed `(` from earlier lines

  // Member declaration joined across continuation lines (wrapped before
  // its `;`, e.g. a long type with SCION_GUARDED_BY on the next line).
  std::string pending_member;
  int pending_line = 0;
  bool pending_annotated = false;
  bool pending_allowed = false;
  int pending_joined = 0;
  const auto reset_pending = [&] {
    pending_member.clear();
    pending_line = 0;
    pending_annotated = false;
    pending_allowed = false;
    pending_joined = 0;
  };

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    if (line.disabled) continue;  // disabled regions count nothing
    const std::string& code_str = line.bare;

    const std::string word = first_word(code_str);
    const bool keyword = keyword_line(word);
    std::size_t ws = 0;
    while (ws < code_str.size() &&
           std::isspace(static_cast<unsigned char>(code_str[ws]))) {
      ++ws;
    }
    const bool pp_line = ws < code_str.size() && code_str[ws] == '#';

    // Lines inside an unclosed parenthesis (a wrapped parameter or argument
    // list) are continuations, never declarations. Updated after the line's
    // detections so the opening line itself still gets scanned.
    const bool in_parens = paren_depth > 0;
    if (!pp_line) {
      for (const char c : code_str) {
        if (c == '(') ++paren_depth;
        if (c == ')' && paren_depth > 0) --paren_depth;
      }
    }

    const auto report_mutable_global = [&](const std::string& var,
                                           const char* what) {
      tally(counts, name, state_rules(), "mutable-global");
      if (line.allows("mutable-global") || allowlisted(var)) return;
      findings.push_back(Finding{
          name, static_cast<int>(i + 1), "mutable-global",
          std::string{what} + " `" + var +
              "` is shared mutable state; make it const, move it into an "
              "owning object, or justify it with a "
              "simlint:allow(mutable-global) comment"});
    };

    // --- mutable-global, form 1: static / thread_local at any scope ------
    // Runs on #define lines too, so macro-generated statics are caught.
    std::smatch sm;
    if (!in_parens && !keyword && std::regex_search(code_str, sm, kStatic)) {
      const std::string decl = decl_before_terminator(
          code_str, static_cast<std::size_t>(sm.position(0)));
      if (!decl.empty() && !has_const_token(decl) &&
          decl.find("extern") == std::string::npos) {
        const std::string var = last_identifier(decl);
        if (!var.empty()) {
          report_mutable_global(var, sm[1].str() == "thread_local"
                                         ? "thread_local variable"
                                         : "static variable");
        }
      }
    } else if (!in_parens && !pp_line && !keyword && !word.empty() &&
               scopes.back() == ScopeKind::kNamespace &&
               std::regex_search(code_str, sm, kNsDecl)) {
      // --- mutable-global, form 2: plain namespace-scope declaration -----
      const std::string specifiers = sm[1].str();
      const std::string decl = decl_before_terminator(code_str, 0);
      if (!decl.empty() && !has_const_token(decl) &&
          specifiers.find("extern") == std::string::npos) {
        const std::string var = last_identifier(decl);
        if (!var.empty()) {
          report_mutable_global(var, "namespace-scope variable");
        }
      }
    }

    // --- unguarded-shared: collect member declarations of class scopes ---
    const bool at_member_depth =
        !in_parens && !pp_line && scopes.back() == ScopeKind::kClass &&
        !class_scopes.empty() && depth == class_scopes.back().body_depth;
    if (at_member_depth && !keyword) {
      const std::string text = pending_member.empty()
                                   ? code_str
                                   : pending_member + " " + code_str;
      const bool annotated =
          pending_annotated ||
          code_str.find("SCION_GUARDED_BY(") != std::string::npos ||
          code_str.find("SCION_PT_GUARDED_BY(") != std::string::npos;
      const bool line_allowed =
          pending_allowed || line.allows("unguarded-shared");
      const int decl_line =
          pending_member.empty() ? static_cast<int>(i + 1) : pending_line;
      const bool terminated = text.find(';') != std::string::npos ||
                              text.find('{') != std::string::npos ||
                              text.find('(') != std::string::npos;
      if (!terminated && !first_word(text).empty() && pending_joined < 4) {
        pending_member = text;
        pending_line = decl_line;
        pending_annotated = annotated;
        pending_allowed = line_allowed;
        ++pending_joined;
      } else {
        reset_pending();
        const std::string decl = decl_before_terminator(text, 0);
        if (!decl.empty() && !last_identifier(decl).empty()) {
          ClassScope& cls = class_scopes.back();
          if (is_mutex_member(decl)) cls.owns_mutex = true;
          cls.members.push_back(
              ClassScope::Member{decl_line, decl, annotated, line_allowed});
        }
      }
    } else if (!at_member_depth) {
      reset_pending();
    }

    // --- brace tracking with lexical scope classification -----------------
    if (pp_line) continue;  // #define bodies don't open real scopes
    std::size_t seg_start = 0;
    for (std::size_t k = 0; k < code_str.size(); ++k) {
      const char c = code_str[k];
      if (c == ';') seg_start = k + 1;
      if (c == '{') {
        const std::string_view before{code_str.data() + seg_start,
                                      k - seg_start};
        const ScopeKind kind = classify_open(before);
        scopes.push_back(kind);
        ++depth;
        if (kind == ScopeKind::kClass) {
          class_scopes.push_back(ClassScope{depth, {}, false});
        }
        seg_start = k + 1;
      } else if (c == '}') {
        if (scopes.size() > 1) {
          const ScopeKind kind = scopes.back();
          if (kind == ScopeKind::kClass && !class_scopes.empty() &&
              class_scopes.back().body_depth == depth) {
            // Closing class: every mutable member of a mutex-owning class
            // must be annotated or allowed.
            const ClassScope& cls = class_scopes.back();
            if (cls.owns_mutex) {
              for (const auto& m : cls.members) {
                if (is_sync_member(m.decl)) continue;
                if (has_const_token(m.decl)) continue;
                if (m.annotated) {
                  tally(counts, name, state_rules(), "guarded-member");
                  continue;
                }
                tally(counts, name, state_rules(), "unguarded-shared");
                if (m.allowed) continue;
                findings.push_back(Finding{
                    name, m.line, "unguarded-shared",
                    "mutable member `" + last_identifier(m.decl) +
                        "` of a mutex-owning class has no SCION_GUARDED_BY "
                        "annotation; declare its lock or justify with a "
                        "simlint:allow(unguarded-shared) comment"});
              }
            }
            class_scopes.pop_back();
          }
          scopes.pop_back();
          --depth;
        }
        seg_start = k + 1;
      }
    }
  }
}

}  // namespace state_detail

/// Shared-state findings over every file, in file order; every site
/// (allowlisted and allowed ones included) is tallied into `counts`.
inline std::vector<Finding> check_shared_state(
    const std::vector<SourceFile>& files, Counts& counts,
    const Allowlist& allowlist = default_state_allowlist()) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    state_detail::scan_state(file, allowlist, counts, findings);
  }
  return findings;
}

}  // namespace scion::lint
