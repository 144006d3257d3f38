// simlint driver: lints the given files / directories (recursively, *.hpp
// *.cpp *.h *.cc) and reports determinism hazards, architecture (layering)
// violations, hot-path cost hazards, and shared mutable state. Each file is
// lexed once into the shared source model (simlint_source.hpp) that every
// analyzer reads: simlint_core.hpp holds the determinism rules,
// simlint_includes.hpp the include-graph rules, simlint_hotpath.hpp the
// hot-path-cost rules, simlint_state.hpp the shared-state rules, all with
// the `// simlint:allow(<rule>)` escape hatch.
//
// --dot=PATH writes the observed module include graph as deterministic DOT
// (sorted nodes/edges) so DESIGN.md's dependency table can be reviewed
// against reality.
//
// --report=PATH writes the deterministic lint inventory JSON: per-file
// counts of every hot-path and shared-state rule match, simlint:allow-
// suppressed and allowlisted sites included, plus the ungated hot-lines and
// guarded-member counts. --baseline=PATH diffs those counts against a
// checked-in report (tools/lint_baseline.json) and fails on any increase.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
//
// Registered as a ctest (`ctest -R simlint`) over src/, bench/, and tools/,
// so tier-1 keeps the tree hazard-free. Directories named simlint_fixtures
// hold deliberately-broken test vectors and are skipped during directory
// walks (they can still be linted by passing the files explicitly, which is
// how the WILL_FAIL fixture tests invoke them).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/simlint_core.hpp"
#include "tools/simlint_hotpath.hpp"
#include "tools/simlint_includes.hpp"
#include "tools/simlint_source.hpp"
#include "tools/simlint_state.hpp"

namespace {

namespace fs = std::filesystem;
using scion::lint::Finding;
using scion::lint::SourceFile;

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool fixture_dir(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "simlint_fixtures") return true;
  }
  return false;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "simlint: cannot read %s\n", path.string().c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out = std::move(buf).str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  if (!(out << text)) {
    std::fprintf(stderr, "simlint: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool add_path(std::vector<SourceFile>& files, const fs::path& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> found;
    for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
      if (entry.is_regular_file() && lintable(entry.path()) &&
          !fixture_dir(entry.path())) {
        found.push_back(entry.path());
      }
    }
    if (ec) {
      std::fprintf(stderr, "simlint: cannot walk %s: %s\n",
                   path.string().c_str(), ec.message().c_str());
      return false;
    }
    // Deterministic report order regardless of directory enumeration.
    std::sort(found.begin(), found.end());
    for (const fs::path& f : found) {
      if (!add_path(files, f)) return false;
    }
    return true;
  }
  std::string content;
  if (!read_file(path, content)) return false;
  files.push_back(scion::lint::lex(path.generic_string(), content));
  return true;
}

std::string usage() {
  std::string text =
      "usage: simlint [--dot=PATH] [--report=PATH] [--baseline=PATH] "
      "<file-or-dir>...\n";
  std::string line = "rules:";
  for (const std::string& rule : scion::lint::rule_names()) {
    if (line.size() + 1 + rule.size() > 78) {
      text += line + "\n";
      line = "      ";
    }
    line += " " + rule;
  }
  return text + line +
         "\n(hot-* rules apply inside SCION_HOT_FN / SCION_HOT_PATH regions)\n"
         "suppress with // simlint:allow(<rule>) on or above the offending "
         "line\n"
         "--dot=PATH writes the observed module include graph as "
         "deterministic DOT\n"
         "--report=PATH writes the hot-path and shared-state count JSON\n"
         "--baseline=PATH fails on any count above that of an earlier "
         "report\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dot_path;
  std::string report_path;
  std::string baseline_path;
  const std::pair<std::string_view, std::string*> kOptions[] = {
      {"--dot=", &dot_path},
      {"--report=", &report_path},
      {"--baseline=", &baseline_path}};
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const auto option = std::find_if(
        std::begin(kOptions), std::end(kOptions),
        [&](const auto& o) { return arg.starts_with(o.first); });
    if (option == std::end(kOptions)) {
      inputs.emplace_back(arg);
    } else {
      *option->second = arg.substr(option->first.size());
    }
  }
  if (inputs.empty()) {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }
  std::vector<SourceFile> files;
  for (const std::string& input : inputs) {
    if (!add_path(files, input)) return 2;
  }

  scion::lint::Counts counts;
  const scion::lint::IncludeGraph graph{files};
  std::vector<Finding> findings = scion::lint::check_determinism(files);
  for (std::vector<Finding> more :
       {graph.check(), scion::lint::check_hot_paths(files, counts),
        scion::lint::check_shared_state(files, counts)}) {
    findings.insert(findings.end(), more.begin(), more.end());
  }
  if (!baseline_path.empty()) {
    std::string baseline;
    if (!read_file(baseline_path, baseline)) return 2;
    for (Finding& f : scion::lint::diff_baseline(counts, baseline)) {
      findings.push_back(std::move(f));
    }
  }
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }

  if (!dot_path.empty() && !write_file(dot_path, graph.to_dot())) return 2;
  if (!report_path.empty() &&
      !write_file(report_path, scion::lint::report_json(counts))) {
    return 2;
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "simlint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
