// simlint include-graph analyzer — architecture lint for the simulator.
//
// The simulator is layered (util at the bottom, experiments at the top) and
// the layering is what keeps the hot path lean: a low layer that reaches up
// pulls protocol machinery into code that benchmarks assume is dependency-
// free, and an include cycle makes header self-containment unprovable. The
// compiler enforces neither, so this analyzer does:
//
//   layering       a file in module A includes a header of module B that is
//                  not in A's declared dependency set (see default_layering()
//                  and DESIGN.md). Also fired when A itself is not declared,
//                  so new top-level directories must be registered.
//   module-cycle   the observed module graph contains a cycle. A cycle means
//                  the declared DAG and reality have diverged in a way the
//                  per-edge check alone cannot localize, so the whole cycle
//                  is reported once, on the edge that closes it.
//
// Edges are read from `#include "..."` lines only (<system> includes carry no
// layering information). Includes inside block comments and inside disabled
// `#if 0` / `#if false` regions do not create edges. A deliberate exception
// is silenced with `// simlint:allow(layering)` on the include line or the
// line above, same escape hatch as the determinism rules.
//
// The observed graph can be dumped as deterministic DOT (sorted nodes and
// edges, include-site counts as labels) for review in DESIGN.md updates:
// `simlint --dot=build/include_graph.dot src`.
#pragma once

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/simlint_source.hpp"

namespace scion::lint {

/// The declared module DAG: module -> modules it may include (not counting
/// itself; intra-module includes are always fine). Mirrors the table in
/// DESIGN.md — update both together, and keep this map a DAG: the analyzer
/// trusts it when explaining findings.
inline const std::map<std::string, std::set<std::string>>& default_layering() {
  static const std::map<std::string, std::set<std::string>> kRules{
      {"util", {}},
      {"crypto", {}},
      {"obs", {"util"}},
      {"exec", {"obs", "util"}},
      {"topology", {"util"}},
      {"simnet", {"obs", "util"}},
      {"analysis", {"topology", "obs", "util"}},
      {"faults", {"simnet", "topology", "obs", "util"}},
      {"bgp", {"faults", "simnet", "topology", "obs", "util"}},
      {"core",
       {"analysis", "crypto", "exec", "faults", "simnet", "topology", "obs",
        "util"}},
      {"scion",
       {"analysis", "core", "crypto", "faults", "simnet", "topology", "obs",
        "util"}},
      {"experiments",
       {"analysis", "bgp", "core", "crypto", "exec", "faults", "obs", "scion",
        "simnet", "topology", "util"}},
  };
  return kRules;
}

namespace detail {

/// Module of a source path: the segment after the last "src" component
/// ("src/bgp/speaker.cpp" -> "bgp", "/repo/src/util/rng.hpp" -> "util").
/// Empty for files outside src/ (bench, tools, tests are consumers of the
/// layered world, not part of it) or directly under it.
inline std::string module_of(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) {
      parts.push_back(path.substr(start));
      break;
    }
    parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  for (std::size_t i = parts.size(); i-- > 0;) {
    // Need a module directory and a file name after the "src" component.
    if (parts[i] == "src" && i + 2 < parts.size()) {
      return std::string{parts[i + 1]};
    }
  }
  return {};
}

/// The target of a project-local include directive in `code` (the quoted
/// path of `#include "..."`), or "" if the line is not one.
inline std::string quoted_include(std::string_view code) {
  std::string rest;
  if (!is_pp(code, "include", &rest)) return {};
  const std::size_t open = rest.find_first_not_of(" \t");
  if (open == std::string::npos || rest[open] != '"') return {};
  const std::size_t close = rest.find('"', open + 1);
  if (close == std::string::npos) return {};
  return rest.substr(open + 1, close - open - 1);
}

}  // namespace detail

class IncludeGraph {
 public:
  using Rules = std::map<std::string, std::set<std::string>>;

  /// Reads the include edges of every file (sorted file order gives a
  /// deterministic report) against the declared layering (tests pass
  /// small synthetic DAGs).
  explicit IncludeGraph(const std::vector<SourceFile>& files,
                        Rules rules = default_layering());

  /// Layering and cycle findings over all files.
  std::vector<Finding> check() const;

  /// The observed module graph as deterministic DOT (sorted nodes/edges,
  /// include-site counts as edge labels; declared-but-unobserved modules
  /// appear as isolated nodes).
  std::string to_dot() const;

 private:
  struct Edge {
    std::string file;
    int line{0};
    std::string from;
    std::string to;
    bool suppressed{false};  // simlint:allow(layering)
  };

  Rules rules_;
  std::vector<Edge> edges_;  // file order, line order
};

inline IncludeGraph::IncludeGraph(const std::vector<SourceFile>& files,
                                  Rules rules)
    : rules_{std::move(rules)} {
  for (const SourceFile& file : files) {
    const std::string module = detail::module_of(file.name);
    if (module.empty()) continue;  // outside the layered src/ tree
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      const SourceLine& line = file.lines[i];
      if (line.disabled) continue;
      // The target is a literal, so this reads the literal-keeping view.
      const std::string target = detail::quoted_include(line.code);
      const std::size_t slash = target.find('/');
      if (slash == std::string::npos) continue;  // none, or same-directory
      const std::string to = target.substr(0, slash);
      if (to == module) continue;  // intra-module
      edges_.push_back(Edge{file.name, static_cast<int>(i + 1), module, to,
                            line.allows("layering")});
    }
  }
}

inline std::vector<Finding> IncludeGraph::check() const {
  std::vector<Finding> findings;

  // Per-edge layering check, in registration order.
  for (const Edge& e : edges_) {
    if (e.suppressed) continue;
    const auto it = rules_.find(e.from);
    if (it == rules_.end()) {
      findings.push_back(Finding{
          e.file, e.line, "layering",
          "module '" + e.from +
              "' is not declared in the layering map; register it in "
              "default_layering() and DESIGN.md"});
      continue;
    }
    if (!it->second.contains(e.to)) {
      std::string deps;
      for (const std::string& d : it->second) {
        if (!deps.empty()) deps += ", ";
        deps += d;
      }
      findings.push_back(Finding{
          e.file, e.line, "layering",
          "module '" + e.from + "' may not include module '" + e.to +
              "' (declared deps: " + (deps.empty() ? "none" : deps) + ")"});
    }
  }

  // Cycle detection over the observed graph (suppressed edges included:
  // an allow-directive silences the layering report, not the structure).
  std::map<std::string, std::set<std::string>> adj;
  std::map<std::pair<std::string, std::string>, const Edge*> first_edge;
  for (const Edge& e : edges_) {
    adj[e.from].insert(e.to);
    first_edge.try_emplace({e.from, e.to}, &e);
  }
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  const auto dfs = [&](const auto& self, const std::string& m) -> void {
    color[m] = 1;
    stack.push_back(m);
    const auto it = adj.find(m);
    if (it != adj.end()) {
      for (const std::string& next : it->second) {
        if (color[next] == 2) continue;
        if (color[next] == 1) {
          // Back edge: the cycle is the stack suffix from `next`, closed
          // by m -> next. Report on that closing include site.
          std::string path;
          for (std::size_t i = 0; i < stack.size(); ++i) {
            if (path.empty() && stack[i] != next) continue;
            path += stack[i] + " -> ";
          }
          path += next;
          const Edge* closing = first_edge.at({m, next});
          findings.push_back(Finding{closing->file, closing->line,
                                     "module-cycle",
                                     "include cycle: " + path});
          continue;
        }
        self(self, next);
      }
    }
    stack.pop_back();
    color[m] = 2;
  };
  for (const auto& [m, _] : adj) {
    if (color[m] == 0) dfs(dfs, m);
  }
  return findings;
}

inline std::string IncludeGraph::to_dot() const {
  std::map<std::string, std::map<std::string, int>> counted;
  std::set<std::string> nodes;
  for (const auto& [m, _] : rules_) nodes.insert(m);
  for (const Edge& e : edges_) {
    nodes.insert(e.from);
    nodes.insert(e.to);
    ++counted[e.from][e.to];
  }
  std::ostringstream out;
  out << "// Observed module include graph (simlint --dot). Deterministic:\n"
         "// nodes and edges sorted, labels are include-site counts.\n"
         "digraph include_graph {\n"
         "  rankdir=BT;\n";
  for (const std::string& n : nodes) {
    out << "  \"" << n << "\";\n";
  }
  for (const auto& [from, tos] : counted) {
    for (const auto& [to, count] : tos) {
      out << "  \"" << from << "\" -> \"" << to << "\" [label=\"" << count
          << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace scion::lint
