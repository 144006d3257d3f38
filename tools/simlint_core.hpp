// simlint — determinism lint for the simulator sources.
//
// The paper's overhead and path-quality results (Figs. 5-9, Table 1) are
// produced by multi-hour simulations that must be bit-reproducible across
// runs and machines. This linter token-scans C++ sources for the hazards
// that silently break that property:
//
//   wall-clock      nondeterministic time sources (std::chrono clocks,
//                   time(), gettimeofday, clock_gettime). All simulation
//                   time must flow through util::TimePoint.
//   std-rng         <random> engines and std::rand/srand/random_device.
//                   All randomness must flow through the seeded util::Rng.
//   unordered-iter  iteration over std::unordered_map/unordered_set.
//                   Hash iteration order is implementation- and
//                   address-dependent; when it feeds serialized or scored
//                   output, two identical runs diverge. Lookups are fine —
//                   only iteration (range-for, .begin()/.end()) is flagged.
//   float-accum     floating-point accumulation inside an unordered
//                   iteration (float addition is not associative, so the
//                   sum depends on hash order), and std::accumulate with a
//                   floating-point init wherever it appears.
//   raw-output      direct stdout writes (std::cout, printf, puts,
//                   fprintf(stdout, ...)) in simulation code. Result output
//                   must flow through the obs renderer (obs::print /
//                   obs::Table) so it stays convertible to the JSON
//                   telemetry outputs; files under an obs/ directory are
//                   the renderer itself and are exempt. stderr diagnostics
//                   and snprintf string formatting are not flagged.
//   raw-thread      raw threading primitives (std::thread, std::jthread,
//                   std::async, pthread_create) outside the task pool.
//                   Ad-hoc threads bypass the per-task telemetry captures
//                   and substream seeding that keep parallel runs
//                   byte-identical; all parallelism must flow through
//                   exec::TaskPool / exec::parallel_map. Files whose stem
//                   contains "task_pool" are the pool itself and exempt.
//
// Provably order-insensitive iteration (pure counting, erase-only sweeps)
// is silenced in place with `// simlint:allow(<rule>)` on the offending
// line or the line above; the directive documents the proof obligation.
//
// Scoping: a declaration like `std::unordered_map<K, V> foo;` makes `foo`
// an unordered name. Members (trailing '_') are visible across the whole
// scanned corpus; other names are visible within their translation-unit
// group, i.e. files sharing a path stem (speaker.hpp + speaker.cpp), which
// covers struct members used from the companion source file
// (scoped_names() in simlint_source.hpp).
#pragma once

#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/simlint_source.hpp"

namespace scion::lint {

/// Determinism findings over every file, in file order.
inline std::vector<Finding> check_determinism(
    const std::vector<SourceFile>& files) {
  static const std::regex kWallClock{
      R"(std::chrono::(?:system_clock|steady_clock|high_resolution_clock))"
      R"(|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\))"};
  static const std::regex kStdRng{
      R"(std::(?:rand\b|srand\b|mt19937(?:_64)?\b|minstd_rand0?\b|)"
      R"(default_random_engine\b|random_device\b|knuth_b\b|ranlux\d+\b)|\bsrand\s*\()"};
  static const std::regex kRangeFor{R"(for\s*\([^;()]*:\s*([^)]*))"};
  static const std::regex kAccumulateFloat{
      R"(std::accumulate\s*\([^;]*,\s*(?:0\.\d*f?|\d+\.\d*f?|(?:double|float)\s*[{(])\s*[,)])"};
  // \b keeps snprintf/fputs/fprintf(stderr) out: only bare printf/puts and
  // an explicit stdout stream count as terminal output.
  static const std::regex kRawOutput{
      R"(\bstd::cout\b|\bprintf\s*\(|\bputs\s*\(|\bfprintf\s*\(\s*stdout\b)"};
  // std::mutex / condition_variable / atomic are fine (synchronization, not
  // thread creation); only spawning primitives are flagged.
  static const std::regex kRawThread{
      R"(\bstd::(?:thread|jthread|async)\b|\bpthread_create\b)"};
  static const std::regex kAlias{
      R"(using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b)"};
  static const std::regex kFloatDecl{R"(\b(?:double|float)\s+(\w+)\s*[;={])"};
  static const std::regex kIdent{R"((\w+))"};
  static const std::regex kBegin{R"((\w+)\.begin\s*\()"};
  static const std::regex kPlusEq{R"((\w+)\s*\+=)"};

  // Aliases are corpus-global (a `using` in one header types members
  // everywhere); variables of alias type are unordered names too.
  std::string decl =
      R"((?:unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*)";
  for (const auto& [stem, aliases] : scoped_names(files, kAlias)) {
    for (const std::string& alias : aliases) {
      decl += R"(|\b)" + alias + R"(\s+)";
    }
  }
  const auto unordered_by_stem =
      scoped_names(files, std::regex{decl + R"()(\w+)\s*[;={(])"});
  const auto floats_by_stem = scoped_names(files, kFloatDecl);

  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    // The obs renderer owns the sanctioned stdout sites.
    const bool obs_exempt = file.name.find("/obs/") != std::string::npos ||
                            file.name.starts_with("obs/");
    // The task pool is the one sanctioned owner of worker threads.
    const bool pool_exempt = file.stem.find("task_pool") != std::string::npos;
    const std::set<std::string>& unordered = unordered_by_stem.at(file.stem);
    const std::set<std::string>& floats = floats_by_stem.at(file.stem);
    // Brace-depth tracking for the body of the innermost flagged
    // unordered-container loop (float-accum context).
    int unordered_loop_depth = -1;
    int depth = 0;

    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      const SourceLine& line = file.lines[i];
      if (line.disabled) continue;
      const std::string& code = line.bare;
      const auto report = [&](const char* rule, std::string message) {
        if (line.allows(rule)) return;
        findings.push_back(Finding{file.name, static_cast<int>(i + 1), rule,
                                   std::move(message)});
      };

      if (std::regex_search(code, kWallClock)) {
        report("wall-clock",
               "wall-clock time source; use util::TimePoint simulation time");
      }
      if (std::regex_search(code, kStdRng)) {
        report("std-rng",
               "unseeded/standard RNG; use util::Rng with an explicit seed");
      }
      if (std::regex_search(code, kAccumulateFloat)) {
        report("float-accum",
               "std::accumulate over floats needs a documented ordering");
      }
      if (!obs_exempt && std::regex_search(code, kRawOutput)) {
        report("raw-output",
               "direct stdout write; route results through the obs renderer "
               "(obs::print / obs::Table)");
      }
      if (!pool_exempt && std::regex_search(code, kRawThread)) {
        report("raw-thread",
               "raw thread primitive; route parallelism through "
               "exec::TaskPool / exec::parallel_map");
      }

      const auto mentions_unordered = [&](const std::string& text,
                                          const std::regex& pattern) {
        for (std::sregex_iterator it{text.begin(), text.end(), pattern}, end;
             it != end; ++it) {
          if (unordered.contains((*it)[1].str())) return true;
        }
        return false;
      };
      bool flagged_iteration = false;
      std::smatch m;
      if (std::regex_search(code, m, kRangeFor) &&
          mentions_unordered(m[1].str(), kIdent)) {
        flagged_iteration = true;
        report("unordered-iter",
               "range-for over an unordered container; order is "
               "hash/address dependent");
      } else if (mentions_unordered(code, kBegin)) {
        // Iterator-style walks: only `.begin()` marks iteration — `.end()`
        // alone is the idiomatic "not found" comparison after a lookup.
        flagged_iteration = true;
        report("unordered-iter",
               "iterator walk over an unordered container; order is "
               "hash/address dependent");
      }

      // float-accum: += on a double/float accumulator inside the body of a
      // flagged unordered iteration.
      if (unordered_loop_depth >= 0 && std::regex_search(code, m, kPlusEq) &&
          (floats.contains(m[1].str()) ||
           code.find("static_cast<double>") != std::string::npos ||
           code.find("static_cast<float>") != std::string::npos)) {
        report("float-accum",
               "floating-point accumulation in unordered iteration order");
      }

      if (flagged_iteration) unordered_loop_depth = depth;
      for (char c : code) {
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          if (unordered_loop_depth >= 0 && depth <= unordered_loop_depth) {
            unordered_loop_depth = -1;
          }
        }
      }
    }
  }
  return findings;
}

}  // namespace scion::lint
