// simlint hot-path-cost analyzer.
//
// Inside regions annotated with the src/util/hot_path.hpp markers
// (SCION_HOT_FN on the line(s) before a function, or an explicit
// SCION_HOT_PATH_BEGIN/END pair), flags the constructs that dominate the
// beaconing/BGP inner loops at Fig. 5 scale (tens of millions of events):
//
//   hot-alloc       heap allocation: new / make_unique / make_shared,
//                   owning-container construction, and growth calls
//                   (push_back, emplace*, insert, try_emplace, resize,
//                   reserve). One allocation per PCB event is ~20M mallocs
//                   per Fig. 5 run.
//   hot-string      std::string construction or formatting (std::string
//                   values, to_string, stringstreams, std::format, .str()).
//                   string_view and snprintf-into-stack-buffer are fine.
//   hot-copy-arg    by-value passing / copy-construction / by-value
//                   any_cast of a large domain type, driven by the declared
//                   type-size table below (PCB, AS entry, path segment,
//                   stored PCB, sim message, BGP update, RIB route, event).
//   hot-map-lookup  per-event std::map / std::unordered_map lookups
//                   (find/at/count/contains/bounds or operator[]) on names
//                   declared as map containers — hash/tree lookups in a
//                   per-event path belong in precomputed dense arrays.
//   hot-unlabeled-schedule
//                   a schedule_at / schedule_after / schedule_periodic /
//                   send member call in a hot region whose argument list
//                   carries no event label (no case-insensitive "label"
//                   token). Unlabeled events land in the profiler's
//                   "(unlabeled)" bucket and defeat per-event cost
//                   attribution exactly where it matters most.
//
// Like every simlint rule, a finding is silenced with
// `// simlint:allow(<rule>)` on the offending line or the line above; the
// directive documents why the cost is acceptable. Allowed sites still count
// in the lint inventory (simlint_source.hpp), together with a `hot-lines`
// count per file, so the checked-in tools/lint_baseline.json fails CI when
// suppressed cost creeps up — the report is the budget, the lint is the
// gate.
//
// Scanning follows simlint_core.hpp conventions: regex per bare line
// (comments and literals stripped), members (trailing '_') visible
// corpus-wide, other names visible within their path-stem group.
#pragma once

#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/simlint_source.hpp"

namespace scion::lint {

/// Declared approximate value sizes (bytes) for the large domain types the
/// hot-copy-arg rule watches. Sizes are curated, not sizeof(): they count
/// the immediate object plus the owning handles copied with it (vectors /
/// shared_ptrs mean refcounts and potential deep copies on mutation).
struct HotType {
  std::string name;
  std::size_t bytes;
};

/// Copying anything >= this many bytes per event is a finding.
inline constexpr std::size_t kHotCopyBytesThreshold = 32;

/// Counted rules; `hot-lines` counts the lines inside hot regions.
inline const std::vector<std::string>& hot_rules() {
  static const std::vector<std::string> kRules{
      "hot-alloc", "hot-copy-arg", "hot-lines", "hot-map-lookup", "hot-string",
      "hot-unlabeled-schedule"};
  return kRules;
}

inline const std::vector<HotType>& default_hot_types() {
  static const std::vector<HotType> kTypes{
      {"AsEntry", 128},      // hop MAC 16 + signature 64 + peers vector
      {"BgpUpdateMsg", 64},  // two prefix vectors + shared AS path
      {"Event", 72},         // time + seq + type-erased callback
      {"Message", 48},       // ids + payload handle
      {"PathSegment", 72},   // PcbRef + AS/link vectors
      {"Pcb", 48},           // timestamps + AS-entry vector (deep copy!)
      {"Route", 32},         // shared AsPath refcount + origin slot
      {"StoredPcb", 56},     // PcbRef + link vector + admission metadata
  };
  return kTypes;
}

namespace detail {

/// True when the line's code starts with `marker` (ignoring leading
/// whitespace). Region markers are recognized only in statement position:
/// that keeps the `#define` lines in util/hot_path.hpp and marker names
/// inside expressions from opening phantom regions.
inline bool starts_with_marker(std::string_view code, std::string_view marker) {
  std::size_t i = 0;
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  return code.substr(i).starts_with(marker);
}

/// Scans the balanced-paren argument list of a call whose '(' sits at
/// column `col` of line `line`, continuing on the following bare lines.
/// True when the argument text holds a case-insensitive "label" token. The
/// scan is bounded to 32 lines; an unterminated list counts as labeled so
/// the rule never false-positives on code the scanner cannot follow.
inline bool call_args_have_label(const std::vector<SourceLine>& lines,
                                 std::size_t line, std::size_t col) {
  int depth = 0;
  std::string args;
  for (std::size_t j = line; j < lines.size() && j < line + 32; ++j) {
    const std::string& code = lines[j].bare;
    for (std::size_t k = j == line ? col : 0; k < code.size(); ++k) {
      const char c = code[k];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;  // the call's own open paren
      } else if (c == ')') {
        --depth;
        if (depth == 0) {
          return args.find("label") != std::string::npos;
        }
      }
      args.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    }
    args.push_back(' ');
  }
  return true;  // unterminated within the window: give the benefit of doubt
}

}  // namespace detail

/// Scans every file; returns unsuppressed findings in file order and adds
/// every hot-region match (allowed ones included) and the hot-lines count
/// to `counts`.
inline std::vector<Finding> check_hot_paths(
    const std::vector<SourceFile>& files, Counts& counts,
    const std::vector<HotType>& hot_types = default_hot_types()) {
  using namespace detail;

  static const std::regex kNew{R"(\bnew\b)"};
  static const std::regex kMake{R"(\bmake_(?:unique|shared)\s*<)"};
  static const std::regex kGrow{
      R"(\.\s*(?:push_back|emplace_back|emplace|insert|try_emplace|resize|reserve)\s*\()"};
  static const std::regex kContainerCtor{
      R"(\bstd::(?:vector|deque|list|forward_list|map|multimap|set|multiset|unordered_map|unordered_multimap|unordered_set|unordered_multiset)\s*<[^;&]*?>\s+\w+)"};
  static const std::regex kString{R"(\bstd::string(?!_view)\b(?!\s*[&*>,]))"};
  static const std::regex kFormat{
      R"(\bto_string\s*\(|\bstd::format\s*\(|\b[io]?stringstream\b|\.str\s*\(\s*\))"};
  static const std::regex kLookup{
      R"((\w+)\s*\.\s*(?:find|at|count|contains|lower_bound|upper_bound|equal_range)\s*\()"};
  static const std::regex kSubscript{R"((\w+)\s*\[)"};
  // Member-call form only: the unlabeled convenience overloads forward to
  // the labeled ones via unqualified calls, which must not match.
  static const std::regex kSchedule{
      R"((?:\.|->)\s*(?:schedule_at|schedule_after|schedule_periodic|send)\s*\()"};
  static const std::regex kMapDecl{
      R"((?:unordered_)?(?:map|multimap)\s*<[^;{}()]*?>\s*(\w+)\s*[;={(])"};

  // By-value declarations / parameters / range-for bindings and by-value
  // any_casts of table types at or above the copy threshold.
  std::string alt;
  for (const HotType& t : hot_types) {
    if (t.bytes < kHotCopyBytesThreshold) continue;
    if (!alt.empty()) alt += '|';
    alt += t.name;
  }
  std::map<std::string, std::size_t, std::less<>> size_of;
  for (const HotType& t : hot_types) size_of.emplace(t.name, t.bytes);
  const std::regex kCopyDecl{R"(\b()" + alt + R"()\s+\w+\s*[,)=;{(:])"};
  const std::regex kCopyCast{R"(\bany_cast<\s*()" + alt + R"()\s*>)"};
  const bool have_types = !alt.empty();

  // Map receiver names (the lookup targets hot-map-lookup watches).
  const auto maps_by_stem = scoped_names(files, kMapDecl);

  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const std::set<std::string>& maps = maps_by_stem.at(file.stem);
    int depth = 0;
    // SCION_HOT_FN region: armed by the marker, the region spans from the
    // marker line (so signatures are scanned for by-value parameters) to
    // the closing brace of the function body.
    bool fn_armed = false;   // marker seen, opening brace not yet
    int fn_base_depth = -1;  // depth outside the hot function body
    int explicit_hot = 0;    // BEGIN/END nesting count

    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      const SourceLine& line = file.lines[i];
      if (line.disabled) continue;
      const std::string& code = line.bare;

      if (starts_with_marker(code, "SCION_HOT_FN")) {
        fn_armed = true;
        fn_base_depth = depth;
      }
      if (starts_with_marker(code, "SCION_HOT_PATH_BEGIN")) ++explicit_hot;

      if (fn_armed || explicit_hot > 0) {
        tally(counts, file.name, hot_rules(), "hot-lines");
        const auto report = [&](const char* rule, std::string message) {
          tally(counts, file.name, hot_rules(), rule);
          if (line.allows(rule)) return;
          findings.push_back(Finding{file.name, static_cast<int>(i + 1), rule,
                                     std::move(message)});
        };

        if (std::regex_search(code, kNew) || std::regex_search(code, kMake)) {
          report("hot-alloc",
                 "heap allocation in a hot-path region; hoist to setup or "
                 "reuse a scratch buffer");
        } else if (std::regex_search(code, kGrow)) {
          report("hot-alloc",
                 "container growth in a hot-path region; preallocate outside "
                 "the per-event path");
        } else if (std::regex_search(code, kContainerCtor)) {
          report("hot-alloc",
                 "owning container constructed in a hot-path region; hoist "
                 "the buffer out of the per-event path");
        }

        if (std::regex_search(code, kString) ||
            std::regex_search(code, kFormat)) {
          report("hot-string",
                 "std::string creation/formatting in a hot-path region; use "
                 "string_view, interned ids, or lazy trace fields");
        }

        if (have_types) {
          std::smatch m;
          if (std::regex_search(code, m, kCopyCast)) {
            report("hot-copy-arg",
                   "by-value any_cast of " + m[1].str() + " (~" +
                       std::to_string(size_of.find(m[1].str())->second) +
                       " bytes); cast to a const reference");
          } else if (std::regex_search(code, m, kCopyDecl)) {
            report("hot-copy-arg",
                   m[1].str() + " (~" +
                       std::to_string(size_of.find(m[1].str())->second) +
                       " bytes) passed/constructed by value in a hot-path "
                       "region; take a const reference or move");
          }
        }

        bool lookup_hit = false;
        for (const std::regex* pattern : {&kLookup, &kSubscript}) {
          for (std::sregex_iterator it{code.begin(), code.end(), *pattern}, end;
               it != end && !lookup_hit; ++it) {
            lookup_hit = maps.contains((*it)[1].str());
          }
        }
        if (lookup_hit) {
          report("hot-map-lookup",
                 "map lookup in a hot-path region; index a precomputed "
                 "dense array instead");
        }

        for (std::sregex_iterator it{code.begin(), code.end(), kSchedule}, end;
             it != end; ++it) {
          const std::size_t open =
              static_cast<std::size_t>(it->position(0)) +
              static_cast<std::size_t>(it->length(0)) - 1;
          if (!call_args_have_label(file.lines, i, open)) {
            report("hot-unlabeled-schedule",
                   "event scheduled/sent in a hot-path region without an "
                   "event label; pass an obs::EventLabel so profiler cost "
                   "attribution covers this path");
          }
        }
      }

      for (char c : code) {
        if (c == '{') {
          ++depth;
        } else if (c == '}') {
          --depth;
          if (fn_armed && fn_base_depth >= 0 && depth <= fn_base_depth) {
            // Closing brace of the hot function body.
            fn_armed = false;
            fn_base_depth = -1;
          }
        }
      }
      if (starts_with_marker(code, "SCION_HOT_PATH_END") && explicit_hot > 0) {
        --explicit_hot;
      }
    }
  }
  return findings;
}

}  // namespace scion::lint
