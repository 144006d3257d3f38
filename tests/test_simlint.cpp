// Unit tests for simlint: the shared source model and count inventory
// (tools/simlint_source.hpp), then each analyzer's rules — every rule's
// positive case, the idiomatic patterns that must stay clean, and the
// simlint:allow escape hatch.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tools/simlint_core.hpp"
#include "tools/simlint_hotpath.hpp"
#include "tools/simlint_includes.hpp"
#include "tools/simlint_source.hpp"
#include "tools/simlint_state.hpp"

namespace scion::lint {
namespace {

/// Lexes (name, content) pairs in order, as the driver does.
std::vector<SourceFile> lex_all(
    const std::vector<std::pair<std::string, std::string>>& named) {
  std::vector<SourceFile> files;
  for (const auto& [name, content] : named) files.push_back(lex(name, content));
  return files;
}

std::vector<Finding> lint_one(const std::string& content,
                              const std::string& name = "src/x.cpp") {
  return check_determinism({lex(name, content)});
}

std::vector<Finding> hot_one(const std::string& content,
                             const std::string& name = "src/core/x.cpp") {
  Counts counts;
  return check_hot_paths({lex(name, content)}, counts);
}

/// The inventory the hot-path analyzer tallies for one file.
Counts hot_counts(const std::string& content,
                  const std::string& name = "src/core/x.cpp") {
  Counts counts;
  check_hot_paths({lex(name, content)}, counts);
  return counts;
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

// --- source model ------------------------------------------------------------

TEST(SimlintSource, CodeKeepsLiteralsAndBareBlanksThem) {
  const SourceFile f = lex("src/a/b.cpp",
                           "#include \"x/y.hpp\"  // note\n"
                           "auto s = R\"(a /* b)\" + 'c'; /* d */ int e;\n");
  ASSERT_EQ(f.lines.size(), 3u);  // the final newline ends an empty line
  EXPECT_EQ(f.stem, "src/a/b");
  EXPECT_EQ(f.lines[0].code, "#include \"x/y.hpp\"  ");
  EXPECT_EQ(f.lines[0].bare, "#include    ");
  EXPECT_EQ(f.lines[1].code, "auto s = R\"(a /* b)\" + 'c';   int e;");
  EXPECT_EQ(f.lines[1].bare, "auto s = R  +  ;   int e;");
}

TEST(SimlintSource, MultiLineCommentsAndRawStringsSpanLines) {
  const SourceFile f = lex("src/x.cpp",
                           "int a; /* open\n"
                           "still comment */ int b;\n"
                           "auto r = R\"x(first\n"
                           "second)x\"; int c;\n");
  EXPECT_EQ(f.lines[0].bare, "int a; ");
  EXPECT_EQ(f.lines[1].bare, " int b;");
  EXPECT_EQ(f.lines[2].bare, "auto r = R");
  EXPECT_EQ(f.lines[2].code, "auto r = R\"x(first");
  EXPECT_EQ(f.lines[3].bare, " ; int c;");
  EXPECT_EQ(f.lines[3].code, "second)x\"; int c;");
}

TEST(SimlintSource, AllowCoversTheLineAndTheLineBelow) {
  const SourceFile f = lex("src/x.cpp",
                           "// simlint:allow(a, b)\n"
                           "x;  // simlint:allow(c)\n"
                           "y;\n"
                           "z;\n");
  EXPECT_TRUE(f.lines[0].allows("a"));
  EXPECT_TRUE(f.lines[1].allows("b"));
  EXPECT_TRUE(f.lines[1].allows("c"));
  EXPECT_FALSE(f.lines[2].allows("a"));
  EXPECT_TRUE(f.lines[2].allows("c"));
  EXPECT_TRUE(f.lines[3].allow.empty());
}

TEST(SimlintSource, DisabledRegionsNestAndEndAtElse) {
  const SourceFile f = lex("src/x.cpp",
                           "#if 0\n"
                           "#ifdef A\n"
                           "#endif\n"
                           "dead;\n"
                           "#else\n"
                           "live;\n"
                           "#endif\n");
  std::vector<bool> disabled;
  for (const SourceLine& line : f.lines) disabled.push_back(line.disabled);
  EXPECT_EQ(disabled, (std::vector<bool>{true, true, true, true, true, false,
                                         false, false}));
}

// --- wall-clock --------------------------------------------------------------

TEST(SimlintWallClock, FlagsChronoClocks) {
  const auto f = lint_one("auto t = std::chrono::system_clock::now();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "wall-clock");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(lint_one("auto t = std::chrono::steady_clock::now();")[0].rule,
            "wall-clock");
  EXPECT_EQ(
      lint_one("auto t = std::chrono::high_resolution_clock::now();")[0].rule,
      "wall-clock");
}

TEST(SimlintWallClock, FlagsCTimeSources) {
  EXPECT_EQ(rules_of(lint_one("time_t t = time(nullptr);")),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of(lint_one("time_t t = time(NULL);")),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of(lint_one("gettimeofday(&tv, nullptr);")),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of(lint_one("clock_gettime(CLOCK_MONOTONIC, &ts);")),
            std::vector<std::string>{"wall-clock"});
}

TEST(SimlintWallClock, SimulationTimeIsClean) {
  EXPECT_TRUE(lint_one("util::TimePoint now = sim.now();\n"
                       "auto later = now + util::Duration::seconds(5);\n")
                  .empty());
  // chrono duration arithmetic without a clock is fine.
  EXPECT_TRUE(lint_one("std::chrono::nanoseconds d{5};").empty());
  // An identifier merely containing "time" is not the C time() call.
  EXPECT_TRUE(lint_one("auto x = runtime();").empty());
}

// --- std-rng -----------------------------------------------------------------

TEST(SimlintStdRng, FlagsStandardEngines) {
  EXPECT_EQ(rules_of(lint_one("std::mt19937 gen;")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("std::mt19937_64 gen{seed};")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("std::default_random_engine e;")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("std::random_device rd;")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("int x = std::rand();")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("srand(42);")),
            std::vector<std::string>{"std-rng"});
}

TEST(SimlintStdRng, SeededUtilRngIsClean) {
  EXPECT_TRUE(lint_one("util::Rng rng{config.seed};\n"
                       "double u = rng.uniform();\n")
                  .empty());
}

// --- unordered-iter ----------------------------------------------------------

TEST(SimlintUnorderedIter, FlagsRangeForOverUnordered) {
  const auto f = lint_one(
      "std::unordered_map<int, int> counts;\n"
      "for (const auto& [k, v] : counts) {\n"
      "  out << k << v;\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].line, 2);
}

TEST(SimlintUnorderedIter, FlagsIteratorWalk) {
  const auto f = lint_one(
      "std::unordered_set<int> seen;\n"
      "for (auto it = seen.begin(); it != seen.end(); ++it) {}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
}

TEST(SimlintUnorderedIter, LookupsAreClean) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, int> counts;\n"
               "auto it = counts.find(k);\n"
               "if (it != counts.end()) use(it->second);\n"
               "counts[k] = 3;\n"
               "counts.erase(k);\n")
          .empty());
}

TEST(SimlintUnorderedIter, OrderedContainersAreClean) {
  EXPECT_TRUE(lint_one("std::map<int, int> counts;\n"
                       "for (const auto& [k, v] : counts) use(k, v);\n")
                  .empty());
}

TEST(SimlintUnorderedIter, ResolvesDeclarationsAcrossStemGroup) {
  const auto f = check_determinism(lex_all({
      // Member declared in the header, iterated in the companion .cpp.
      {"src/foo.hpp", "struct S { std::unordered_map<int, int> table; };\n"},
      {"src/foo.cpp", "for (const auto& [k, v] : table) use(k);\n"},
      // Same local name in an unrelated file must NOT inherit the type.
      {"src/bar.cpp", "for (const auto& e : table) use(e);\n"},
  }));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/foo.cpp");
}

TEST(SimlintUnorderedIter, TrailingUnderscoreMembersAreGlobal) {
  const auto f = check_determinism(lex_all({
      {"src/foo.hpp", "class C { std::unordered_map<int, int> cache_; };\n"},
      {"src/other.cpp", "for (const auto& [k, v] : cache_) use(k);\n"},
  }));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/other.cpp");
}

TEST(SimlintUnorderedIter, ResolvesUnorderedTypeAliases) {
  const auto f = lint_one(
      "using Table = std::unordered_map<int, int>;\n"
      "Table table;\n"
      "for (const auto& [k, v] : table) use(k);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].line, 3);
}

TEST(SimlintUnorderedIter, MultilineDeclarationIsResolved) {
  const auto f = lint_one(
      "std::unordered_map<std::string,\n"
      "                   std::vector<int>>\n"
      "    buckets;\n"
      "for (auto& [k, v] : buckets) use(v);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

// --- float-accum -------------------------------------------------------------

TEST(SimlintFloatAccum, FlagsAccumulateWithFloatInit) {
  const auto f = lint_one(
      "double mean = std::accumulate(v.begin(), v.end(), 0.0) / n;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "float-accum");
}

TEST(SimlintFloatAccum, IntegerAccumulateIsClean) {
  EXPECT_TRUE(
      lint_one("long total = std::accumulate(v.begin(), v.end(), 0L);\n")
          .empty());
}

TEST(SimlintFloatAccum, FlagsFloatSumInsideUnorderedLoop) {
  const auto f = lint_one(
      "std::unordered_map<int, double> weights;\n"
      "double total = 0.0;\n"
      "for (const auto& [k, w] : weights) {\n"
      "  total += w;\n"
      "}\n");
  ASSERT_EQ(f.size(), 2u);  // the loop itself + the accumulation
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[1].rule, "float-accum");
  EXPECT_EQ(f[1].line, 4);
}

TEST(SimlintFloatAccum, IntegerSumInsideUnorderedLoopIsOnlyIterFlagged) {
  const auto f = lint_one(
      "std::unordered_map<int, int> counts;\n"
      "std::size_t n = 0;\n"
      "for (const auto& [k, c] : counts) {\n"
      "  n += c;\n"
      "}\n");
  EXPECT_EQ(rules_of(f), std::vector<std::string>{"unordered-iter"});
}

TEST(SimlintFloatAccum, LoopBodyContextEndsAtCloseBrace) {
  const auto f = lint_one(
      "std::unordered_map<int, double> weights;\n"
      "double total = 0.0;\n"
      "for (const auto& [k, w] : weights) {\n"  // flagged
      "  use(k);\n"
      "}\n"
      "total += 1.0;\n");  // outside the loop: clean
  EXPECT_EQ(rules_of(f), std::vector<std::string>{"unordered-iter"});
}

// --- allow directive ---------------------------------------------------------

TEST(SimlintAllow, SameLineDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, int> counts;\n"
               "for (const auto& [k, v] : counts) {}  "
               "// simlint:allow(unordered-iter)\n")
          .empty());
}

TEST(SimlintAllow, PreviousLineDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, int> counts;\n"
               "// commutative count, order-insensitive. "
               "simlint:allow(unordered-iter)\n"
               "for (const auto& [k, v] : counts) {}\n")
          .empty());
}

TEST(SimlintAllow, DirectiveDoesNotReachFurtherLines) {
  const auto f = lint_one(
      "std::unordered_map<int, int> counts;\n"
      "// simlint:allow(unordered-iter)\n"
      "use(counts.size());\n"
      "for (const auto& [k, v] : counts) {}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

TEST(SimlintAllow, OnlySuppressesTheNamedRule) {
  const auto f = lint_one(
      "// simlint:allow(wall-clock)\n"
      "std::random_device rd;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "std-rng");
}

TEST(SimlintAllow, SuppressesMultipleCommaSeparatedRules) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, double> w;\n"
               "double t = 0.0;\n"
               "// simlint:allow(unordered-iter)\n"
               "for (const auto& [k, v] : w) {\n"
               "  t += v;  // simlint:allow(float-accum)\n"
               "}\n")
          .empty());
}

// --- raw-output --------------------------------------------------------------

TEST(SimlintRawOutput, FlagsDirectStdoutWrites) {
  EXPECT_EQ(rules_of(lint_one("std::cout << result << '\\n';")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("std::printf(\"%d\\n\", x);")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("printf(\"%d\\n\", x);")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("puts(\"done\");")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("fprintf(stdout, \"%d\\n\", x);")),
            std::vector<std::string>{"raw-output"});
}

TEST(SimlintRawOutput, NonStdoutIoIsClean) {
  // Diagnostics on stderr and in-memory formatting are not result output.
  EXPECT_TRUE(lint_one("std::fprintf(stderr, \"oops\\n\");").empty());
  EXPECT_TRUE(
      lint_one("std::snprintf(buf, sizeof buf, \"%d\", x);").empty());
  EXPECT_TRUE(lint_one("std::fputs(\"x\", f);").empty());
  EXPECT_TRUE(lint_one("out << \"pair \" << src << '\\n';").empty());
}

TEST(SimlintRawOutput, ObsRendererFilesAreExempt) {
  // The renderer itself is the sanctioned stdout site.
  EXPECT_TRUE(
      lint_one("std::cout << text;", "src/obs/report.cpp").empty());
  EXPECT_TRUE(lint_one("std::cout << text;", "obs/report.cpp").empty());
  // Non-obs files stay covered.
  EXPECT_EQ(rules_of(lint_one("std::cout << text;", "src/core/scoring.cpp")),
            std::vector<std::string>{"raw-output"});
}

TEST(SimlintRawOutput, AllowDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::cout << banner;  // simlint:allow(raw-output)\n")
          .empty());
}

// --- raw-thread --------------------------------------------------------------

TEST(SimlintRawThread, FlagsThreadSpawningPrimitives) {
  EXPECT_EQ(rules_of(lint_one("std::thread t{[] { work(); }};")),
            std::vector<std::string>{"raw-thread"});
  EXPECT_EQ(rules_of(lint_one("std::jthread t{[] { work(); }};")),
            std::vector<std::string>{"raw-thread"});
  EXPECT_EQ(rules_of(lint_one("auto f = std::async(std::launch::async, g);")),
            std::vector<std::string>{"raw-thread"});
  EXPECT_EQ(rules_of(lint_one("pthread_create(&tid, nullptr, fn, arg);")),
            std::vector<std::string>{"raw-thread"});
}

TEST(SimlintRawThread, SynchronizationPrimitivesAreClean) {
  // Mutexes/atomics coordinate pool workers; only spawning is flagged.
  EXPECT_TRUE(lint_one("std::mutex mu;").empty());
  EXPECT_TRUE(lint_one("std::condition_variable cv;").empty());
  EXPECT_TRUE(lint_one("std::atomic<std::size_t> next{0};").empty());
  EXPECT_TRUE(lint_one("thread_local MetricShard* t_shard = nullptr;").empty());
  // An identifier merely containing "thread" is not a spawn.
  EXPECT_TRUE(lint_one("pool.threads_.reserve(n);").empty());
}

TEST(SimlintRawThread, TaskPoolFilesAreExempt) {
  // The pool is the sanctioned owner of worker threads.
  EXPECT_TRUE(lint_one("std::thread t{[] { loop(); }};",
                       "src/exec/task_pool.cpp")
                  .empty());
  EXPECT_TRUE(lint_one("std::vector<std::thread> threads_;",
                       "src/exec/task_pool.hpp")
                  .empty());
  // Everything else stays covered.
  EXPECT_EQ(rules_of(lint_one("std::thread t{[] { loop(); }};",
                              "src/experiments/quality_experiment.cpp")),
            std::vector<std::string>{"raw-thread"});
}

TEST(SimlintRawThread, AllowDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::thread watchdog{[] {}};  // simlint:allow(raw-thread)\n")
          .empty());
}

// --- comment handling --------------------------------------------------------

TEST(SimlintAllow, DirectiveToleratesWhitespaceInsideParens) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, double> w;\n"
               "double t = 0.0;\n"
               "// simlint:allow( unordered-iter , float-accum )\n"
               "for (const auto& [k, v] : w) {\n"
               "  t += v;  // simlint:allow( float-accum )\n"
               "}\n")
          .empty());
}

TEST(SimlintComments, HazardsInCommentsAreIgnored) {
  EXPECT_TRUE(
      lint_one("// std::rand() would break reproducibility here\n"
               "/* std::chrono::system_clock is also banned */\n"
               "int x = 1;\n")
          .empty());
  EXPECT_TRUE(
      lint_one("/*\n"
               " * for (auto& e : some_unordered_thing) — example only\n"
               " * std::mt19937 gen;\n"
               " */\n"
               "int y = 2;\n")
          .empty());
}

// --- literals and disabled regions ------------------------------------------

TEST(SimlintLiterals, HazardAfterCommentLikeLiteralIsFlagged) {
  const auto f = lint_one(
      "auto u = \"http://h\"; auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "wall-clock");
  EXPECT_EQ(rules_of(lint_one("log(\"//\"); std::mt19937 gen;\n")),
            std::vector<std::string>{"std-rng"});
  const auto h = hot_one(
      "SCION_HOT_FN\n"
      "void f() {\n"
      "  log(\"//\"); auto* p = new int{1};\n"
      "}\n");
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].rule, "hot-alloc");
  EXPECT_EQ(h[0].line, 3);
}

TEST(SimlintLiterals, BlockCommentOpenerInLiteralHidesNothing) {
  const auto f = lint_one(
      "const char* kGlob = \"src/*\";\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "std::mt19937 gen;\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "wall-clock");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].rule, "std-rng");
  EXPECT_EQ(f[1].line, 3);
}

TEST(SimlintLiterals, HazardsSpelledInsideLiteralsAreIgnored) {
  EXPECT_TRUE(lint_one("log(\"std::chrono::system_clock\");\n").empty());
  EXPECT_TRUE(hot_one("SCION_HOT_FN\n"
                      "void f() {\n"
                      "  log(\"new std::string\");\n"
                      "}\n")
                  .empty());
}

TEST(SimlintLiterals, DisabledRegionsAreSkippedByEveryRule) {
  EXPECT_TRUE(lint_one("#if 0\n"
                       "std::mt19937 gen;\n"
                       "#endif\n")
                  .empty());
  EXPECT_TRUE(hot_one("SCION_HOT_FN\n"
                      "void f() {\n"
                      "#if false\n"
                      "  auto* p = new int{1};\n"
                      "#endif\n"
                      "}\n")
                  .empty());
}

// --- include graph (architecture lint) ---------------------------------------

std::vector<Finding> graph_one(const std::string& content,
                               const std::string& name = "src/util/x.hpp") {
  return IncludeGraph{{lex(name, content)}}.check();
}

TEST(SimlintLayering, UpwardIncludeIsFlagged) {
  // util is the bottom layer: reaching up into simnet violates the DAG.
  const auto f = graph_one("#include \"simnet/simulator.hpp\"\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("'util'"), std::string::npos);
  EXPECT_NE(f[0].message.find("'simnet'"), std::string::npos);
}

TEST(SimlintLayering, DeclaredDependenciesAreClean) {
  EXPECT_TRUE(graph_one("#include <vector>\n"
                        "#include \"simnet/network.hpp\"\n"
                        "#include \"topology/topology.hpp\"\n"
                        "#include \"util/rng.hpp\"\n",
                        "src/faults/injector.hpp")
                  .empty());
}

TEST(SimlintLayering, IntraModuleAndSystemIncludesAreIgnored) {
  EXPECT_TRUE(graph_one("#include <chrono>\n"
                        "#include \"util/time.hpp\"\n"   // intra-module
                        "#include \"local_helper.hpp\"\n")  // no slash
                  .empty());
}

TEST(SimlintLayering, FilesOutsideSrcAreNotPartOfTheLayeredWorld) {
  // bench/tools/tests consume every layer; they carry no layering info.
  EXPECT_TRUE(graph_one("#include \"scion/sig.hpp\"\n"
                        "#include \"util/rng.hpp\"\n",
                        "bench/bench_micro.cpp")
                  .empty());
  EXPECT_TRUE(graph_one("#include \"scion/sig.hpp\"\n", "src/version.hpp")
                  .empty());  // directly under src/: no module directory
}

TEST(SimlintLayering, UndeclaredModuleIsFlagged) {
  const auto f =
      graph_one("#include \"util/rng.hpp\"\n", "src/newmod/thing.hpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_NE(f[0].message.find("not declared"), std::string::npos);
}

TEST(SimlintLayering, IncludeInBlockCommentCreatesNoEdge) {
  EXPECT_TRUE(graph_one("/* historical note:\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "was removed when util stopped timing itself. */\n")
                  .empty());
  EXPECT_TRUE(
      graph_one("// #include \"simnet/simulator.hpp\"\n").empty());
}

TEST(SimlintLayering, IncludeInDisabledRegionCreatesNoEdge) {
  EXPECT_TRUE(graph_one("#if 0\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "#endif\n")
                  .empty());
  EXPECT_TRUE(graph_one("#if false\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "#endif\n")
                  .empty());
  // Inner conditional blocks nest within the disabled region.
  EXPECT_TRUE(graph_one("#if 0\n"
                        "#ifdef SOMETHING\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "#endif\n"
                        "#include \"simnet/network.hpp\"\n"
                        "#endif\n")
                  .empty());
}

TEST(SimlintLayering, ElseOfDisabledRegionIsActive) {
  const auto f = graph_one("#if 0\n"
                           "#include \"simnet/network.hpp\"\n"
                           "#else\n"
                           "#include \"simnet/simulator.hpp\"\n"
                           "#endif\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

TEST(SimlintLayering, AllowDirectiveSuppresses) {
  EXPECT_TRUE(
      graph_one("#include \"simnet/simulator.hpp\"  "
                "// simlint:allow(layering)\n")
          .empty());
  EXPECT_TRUE(
      graph_one("// transitional shim, tracked in DESIGN.md. "
                "simlint:allow(layering)\n"
                "#include \"simnet/simulator.hpp\"\n")
          .empty());
}

TEST(SimlintCycle, ObservedCycleIsReported) {
  // A synthetic two-module DAG where both directions are declared legal —
  // the per-edge check stays quiet, so only cycle detection can catch it.
  const IncludeGraph graph{lex_all({{"src/a/a.hpp", "#include \"b/b.hpp\"\n"},
                                    {"src/b/b.hpp", "#include \"a/a.hpp\"\n"}}),
                           {{"a", {"b"}}, {"b", {"a"}}}};
  const auto f = graph.check();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "module-cycle");
  EXPECT_NE(f[0].message.find("a -> b -> a"), std::string::npos);
}

TEST(SimlintCycle, RealTreeShapedGraphHasNoCycle) {
  const IncludeGraph graph{
      lex_all({{"src/scion/sig.hpp", "#include \"core/pcb.hpp\"\n"},
               {"src/core/pcb.hpp", "#include \"crypto/mac.hpp\"\n"}})};
  EXPECT_TRUE(graph.check().empty());
}

// --- hot-path-cost analyzer --------------------------------------------------

TEST(SimlintHotPath, AllocInHotFnIsFlagged) {
  const auto f = hot_one(
      "SCION_HOT_FN\n"
      "void handle(int n) {\n"
      "  auto* p = new int{n};\n"
      "  use(p);\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-alloc");
  EXPECT_EQ(f[0].line, 3);
}

TEST(SimlintHotPath, MakeSharedAndGrowthAreFlagged) {
  EXPECT_EQ(rules_of(hot_one("SCION_HOT_FN\n"
                             "void f() {\n"
                             "  auto p = std::make_shared<Pcb>(pcb);\n"
                             "}\n")),
            std::vector<std::string>{"hot-alloc"});
  EXPECT_EQ(rules_of(hot_one("SCION_HOT_FN\n"
                             "void f() {\n"
                             "  links.push_back(l);\n"
                             "}\n")),
            std::vector<std::string>{"hot-alloc"});
  EXPECT_EQ(rules_of(hot_one("SCION_HOT_FN\n"
                             "void f() {\n"
                             "  std::vector<int> scratch;\n"
                             "}\n")),
            std::vector<std::string>{"hot-alloc"});
}

TEST(SimlintHotPath, CodeOutsideRegionsIsClean) {
  EXPECT_TRUE(hot_one("void cold() {\n"
                      "  auto* p = new int{1};\n"
                      "  std::string s = to_string(2);\n"
                      "}\n")
                  .empty());
}

TEST(SimlintHotPath, HotFnRegionEndsAtClosingBrace) {
  const auto f = hot_one(
      "SCION_HOT_FN\n"
      "void hot() {\n"
      "  use(1);\n"
      "}\n"
      "void cold() {\n"
      "  auto* p = new int{1};\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(SimlintHotPath, ExplicitRegionFlagsAndEnds) {
  const auto f = hot_one(
      "void setup() {\n"
      "  SCION_HOT_PATH_BEGIN(dispatch);\n"
      "  auto* p = new int{1};\n"
      "  SCION_HOT_PATH_END();\n"
      "  auto* q = new int{2};\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-alloc");
  EXPECT_EQ(f[0].line, 3);
}

TEST(SimlintHotPath, StringCreationAndFormattingAreFlagged) {
  EXPECT_EQ(rules_of(hot_one("SCION_HOT_FN\n"
                             "void f() {\n"
                             "  std::string label = name();\n"
                             "}\n")),
            std::vector<std::string>{"hot-string"});
  EXPECT_EQ(rules_of(hot_one("SCION_HOT_FN\n"
                             "void f() {\n"
                             "  log(std::to_string(seq));\n"
                             "}\n")),
            std::vector<std::string>{"hot-string"});
  // string_view is the sanctioned zero-copy type.
  EXPECT_TRUE(hot_one("SCION_HOT_FN\n"
                      "void f(std::string_view name) {\n"
                      "  use(name);\n"
                      "}\n")
                  .empty());
  // const std::string& does not construct.
  EXPECT_TRUE(hot_one("SCION_HOT_FN\n"
                      "void f(const std::string& name) {\n"
                      "  use(name);\n"
                      "}\n")
                  .empty());
}

TEST(SimlintHotPath, ByValueLargeTypeIsFlaggedWithSize) {
  const auto f = hot_one(
      "SCION_HOT_FN\n"
      "void admit(Pcb pcb) {\n"
      "  use(pcb);\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-copy-arg");
  EXPECT_NE(f[0].message.find("Pcb"), std::string::npos);
  EXPECT_NE(f[0].message.find("48"), std::string::npos);  // table size
  // Const reference is clean.
  EXPECT_TRUE(hot_one("SCION_HOT_FN\n"
                      "void admit(const Pcb& pcb) {\n"
                      "  use(pcb);\n"
                      "}\n")
                  .empty());
  // PcbRef (shared handle) is not the Pcb value type.
  EXPECT_TRUE(hot_one("SCION_HOT_FN\n"
                      "void admit(const PcbRef& pcb) {\n"
                      "  PcbRef copy = pcb;\n"
                      "}\n")
                  .empty());
}

TEST(SimlintHotPath, ByValueAnyCastIsFlagged) {
  const auto f = hot_one(
      "SCION_HOT_FN\n"
      "void deliver(const Message& msg) {\n"
      "  const auto update = std::any_cast<BgpUpdateMsg>(msg.payload);\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-copy-arg");
  EXPECT_NE(f[0].message.find("any_cast"), std::string::npos);
  // Reference cast is clean.
  EXPECT_TRUE(
      hot_one("SCION_HOT_FN\n"
              "void deliver(const Message& msg) {\n"
              "  const auto& u = std::any_cast<const BgpUpdateMsg&>(msg.p);\n"
              "}\n")
          .empty());
}

TEST(SimlintHotPath, TypeTableIsConfigurable) {
  Counts counts;
  const auto f = check_hot_paths({lex("src/core/x.cpp",
                                      "SCION_HOT_FN\n"
                                      "void f(Huge h) {\n"
                                      "  Pcb pcb = other;\n"  // not in table
                                      "}\n")},
                                 counts, {{"Huge", 4096}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("4096"), std::string::npos);
}

TEST(SimlintHotPath, MapLookupOnDeclaredMapIsFlagged) {
  const auto f = hot_one(
      "std::unordered_map<int, int> scores_;\n"
      "SCION_HOT_FN\n"
      "int score(int k) {\n"
      "  const auto it = scores_.find(k);\n"
      "  return it == scores_.end() ? 0 : it->second;\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-map-lookup");
  EXPECT_EQ(f[0].line, 4);
}

TEST(SimlintHotPath, MapMembersResolveAcrossFiles) {
  Counts counts;
  const auto f = check_hot_paths(
      lex_all({{"src/core/store.hpp",
                "class S { std::map<int, int> buckets_; };\n"},
               {"src/core/admission.cpp",
                "SCION_HOT_FN\n"
                "void admit(int k) {\n"
                "  use(buckets_[k]);\n"
                "}\n"}}),
      counts);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-map-lookup");
  EXPECT_EQ(f[0].file, "src/core/admission.cpp");
}

TEST(SimlintHotPath, VectorIndexingIsClean) {
  EXPECT_TRUE(hot_one("std::vector<int> dense_;\n"
                      "SCION_HOT_FN\n"
                      "int score(int k) {\n"
                      "  return dense_[k];\n"
                      "}\n")
                  .empty());
}

TEST(SimlintHotPath, AllowSuppressesButStillCounts) {
  const std::string source =
      "SCION_HOT_FN\n"
      "void f() {\n"
      "  // startup only, once per AS. simlint:allow(hot-alloc)\n"
      "  auto* p = new int{1};\n"
      "}\n";
  EXPECT_TRUE(hot_one(source).empty());
  // The suppressed site still appears in the report — that is what the
  // checked-in baseline budgets.
  const std::string report = report_json(hot_counts(source));
  EXPECT_NE(report.find("\"hot-alloc\": 1"), std::string::npos);
  EXPECT_NE(report.find("\"hot-lines\": 5"), std::string::npos);
}

TEST(SimlintHotPath, CostReportIsDeterministic) {
  const auto build = [] {
    Counts counts;
    check_hot_paths(
        lex_all({{"src/core/b.cpp",
                  "SCION_HOT_FN\nvoid f() {\n  x.push_back(1);\n}\n"},
                 {"src/core/a.cpp",
                  "SCION_HOT_FN\nvoid g() {\n  auto* p = new int{1};\n}\n"}}),
        counts);
    return report_json(counts);
  };
  const std::string report = build();
  EXPECT_EQ(report, build());
  // Files sorted by name regardless of registration order.
  EXPECT_LT(report.find("src/core/a.cpp"), report.find("src/core/b.cpp"));
}

TEST(SimlintHotPath, BaselineDiffFlagsRegressionsOnly) {
  const std::string source =
      "SCION_HOT_FN\n"
      "void f() {\n"
      "  auto* p = new int{1};  // simlint:allow(hot-alloc)\n"
      "}\n";
  const std::string baseline = report_json(hot_counts(source));

  // Same counts: clean.
  EXPECT_TRUE(diff_baseline(hot_counts(source), baseline).empty());

  // One more allowed allocation than the baseline: regression.
  const auto regress = diff_baseline(
      hot_counts("SCION_HOT_FN\n"
                 "void f() {\n"
                 "  auto* p = new int{1};  // simlint:allow(hot-alloc)\n"
                 "  auto* q = new int{2};  // simlint:allow(hot-alloc)\n"
                 "}\n"),
      baseline);
  ASSERT_EQ(regress.size(), 1u);
  EXPECT_EQ(regress[0].rule, "baseline-regression");
  EXPECT_NE(regress[0].message.find("hot-alloc"), std::string::npos);
  EXPECT_NE(regress[0].message.find("2"), std::string::npos);
  EXPECT_NE(regress[0].message.find("1"), std::string::npos);

  // Fewer counts than the baseline (an improvement): clean.
  EXPECT_TRUE(diff_baseline(hot_counts("SCION_HOT_FN\n"
                                       "void f() {\n"
                                       "  use(1);\n"
                                       "}\n"),
                            baseline)
                  .empty());

  // A brand-new hot file is a regression against an empty baseline slot.
  EXPECT_EQ(
      diff_baseline(hot_counts(source, "src/core/fresh.cpp"), baseline).size(),
      1u);
}

TEST(SimlintDot, OutputIsDeterministicAndSorted) {
  const auto build = [] {
    return IncludeGraph{{lex("src/a/x.hpp", "#include \"b/y.hpp\"\n"
                                            "#include \"b/z.hpp\"\n")},
                        {{"a", {"b"}}, {"b", {}}}}
        .to_dot();
  };
  const std::string dot = build();
  EXPECT_EQ(dot, build());
  EXPECT_NE(dot.find("\"a\" -> \"b\" [label=\"2\"]"), std::string::npos);
  // Declared-but-unobserved modules still appear as nodes.
  EXPECT_NE(dot.find("\"b\";"), std::string::npos);
}

// --- shared-state analyzer (simlint_state.hpp) -------------------------------

/// Runs the shared-state rules with an empty allowlist (exercising the
/// rules, not the built-in registry list); `counts` receives the tallies.
std::vector<Finding> state_check(
    const std::vector<std::pair<std::string, std::string>>& named,
    Counts& counts) {
  return check_shared_state(lex_all(named), counts, Allowlist{});
}

std::vector<Finding> state_lint_one(const std::string& content,
                                    const std::string& name = "src/x.cpp") {
  Counts counts;
  return state_check({{name, content}}, counts);
}

Counts state_counts(const std::string& content,
                    const std::string& name = "src/x.cpp") {
  Counts counts;
  state_check({{name, content}}, counts);
  return counts;
}

TEST(SimlintState, NamespaceScopeGlobalIsFlagged) {
  const auto f = state_lint_one("namespace scion {\n"
                                "int g_count = 0;\n"
                                "}  // namespace scion\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "mutable-global");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("g_count"), std::string::npos);
  // Top of file counts as namespace scope even without a namespace keyword.
  EXPECT_EQ(rules_of(state_lint_one("std::vector<int> g_rows;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, FunctionLocalStaticAndThreadLocalAreFlagged) {
  EXPECT_EQ(rules_of(state_lint_one("int f() {\n"
                                    "  static int calls = 0;\n"
                                    "  return ++calls;\n"
                                    "}\n")),
            std::vector<std::string>{"mutable-global"});
  EXPECT_EQ(rules_of(state_lint_one("thread_local int t_depth = 0;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, ConstAndConstexprAreClean) {
  EXPECT_TRUE(state_lint_one("static constexpr int kMax = 4;\n").empty());
  EXPECT_TRUE(state_lint_one("const std::string kName = \"x\";\n").empty());
  EXPECT_TRUE(
      state_lint_one("static const std::regex kRe{\"a\"};\n").empty());
  // constinit promises constant initialization, not immutability.
  EXPECT_EQ(rules_of(state_lint_one("constinit int g_mode = 0;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, FunctionsAndLocalsAreClean) {
  EXPECT_TRUE(state_lint_one("int parse(const char* s);\n").empty());
  EXPECT_TRUE(state_lint_one("static int helper() { return 1; }\n").empty());
  // A plain local inside a function body is block scope, not namespace.
  EXPECT_TRUE(state_lint_one("void f() {\n"
                             "  int local = 0;\n"
                             "  use(local);\n"
                             "}\n")
                  .empty());
  // Continuation lines of a wrapped parameter list are not declarations.
  EXPECT_TRUE(state_lint_one("void record(int a,\n"
                             "            int allocs = 0, int bytes = 0);\n")
                  .empty());
}

TEST(SimlintState, AllowDirectivePlacementAndWhitespace) {
  // Same line.
  EXPECT_TRUE(
      state_lint_one("int g_x = 0;  // simlint:allow(mutable-global)\n")
          .empty());
  // Line directly above.
  EXPECT_TRUE(state_lint_one("// why it is safe. simlint:allow(mutable-global)\n"
                             "int g_x = 0;\n")
                  .empty());
  // Whitespace inside the directive's rule list is ignored.
  EXPECT_TRUE(
      state_lint_one("int g_x = 0;  // simlint:allow( mutable-global )\n")
          .empty());
  // Two lines above is too far: the directive must touch the declaration.
  EXPECT_EQ(state_lint_one("// simlint:allow(mutable-global)\n"
                           "\n"
                           "int g_x = 0;\n")
                .size(),
            1u);
}

TEST(SimlintState, CommentedAndDisabledRegionsAreClean) {
  // Inside a block comment.
  EXPECT_TRUE(state_lint_one("/*\n"
                             "static int g_old = 0;\n"
                             "*/\n")
                  .empty());
  // Inside #if 0, including nested conditional blocks.
  EXPECT_TRUE(state_lint_one("#if 0\n"
                             "static int g_dead = 0;\n"
                             "#ifdef FOO\n"
                             "static int g_deader = 0;\n"
                             "#endif\n"
                             "#endif\n")
                  .empty());
  // The #else of a disabled region is live again.
  EXPECT_EQ(state_lint_one("#if 0\n"
                           "static int g_dead = 0;\n"
                           "#else\n"
                           "static int g_live = 0;\n"
                           "#endif\n")
                .size(),
            1u);
  // Inside a string literal (the JSON emitters spell such text).
  EXPECT_TRUE(
      state_lint_one("const char* kMsg = \"static int g_fake = 0;\";\n")
          .empty());
}

TEST(SimlintState, MacroGeneratedStaticIsFlagged) {
  EXPECT_EQ(rules_of(state_lint_one(
                "#define DEFINE_COUNTER(name) static int name = 0;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, UnguardedMemberOfMutexOwningClassIsFlagged) {
  const auto f = state_lint_one("class C {\n"
                                " private:\n"
                                "  std::mutex mu_;\n"
                                "  int total_ = 0;\n"
                                "};\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unguarded-shared");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].message.find("total_"), std::string::npos);
  // util::Mutex declares a lock protocol just like std::mutex.
  EXPECT_EQ(rules_of(state_lint_one("class C {\n"
                                    "  util::Mutex mu_;\n"
                                    "  int n_ = 0;\n"
                                    "};\n")),
            std::vector<std::string>{"unguarded-shared"});
}

TEST(SimlintState, GuardedAndExemptMembersAreClean) {
  EXPECT_TRUE(state_lint_one("class C {\n"
                             "  mutable util::Mutex mu_;\n"
                             "  int total_ SCION_GUARDED_BY(mu_) = 0;\n"
                             "  std::vector<int> rows_ SCION_GUARDED_BY(mu_);\n"
                             "  util::CondVar cv_;\n"
                             "  const int limit_ = 4;\n"
                             "  static constexpr int kCap = 8;\n"
                             "};\n")
                  .empty());
  // A wrapped declaration with the annotation on its continuation line.
  EXPECT_TRUE(state_lint_one("class C {\n"
                             "  std::mutex mu_;\n"
                             "  std::map<std::string, int> by_name_\n"
                             "      SCION_GUARDED_BY(mu_);\n"
                             "};\n")
                  .empty());
}

TEST(SimlintState, AnnotationInsideCommentDoesNotCount) {
  EXPECT_EQ(rules_of(state_lint_one("class C {\n"
                                    "  std::mutex mu_;\n"
                                    "  int n_ = 0;  // SCION_GUARDED_BY(mu_)\n"
                                    "};\n")),
            std::vector<std::string>{"unguarded-shared"});
}

TEST(SimlintState, MutexFreeClassIsClean) {
  EXPECT_TRUE(state_lint_one("class PlainCounter {\n"
                             "  int total_ = 0;\n"
                             "  std::vector<int> rows_;\n"
                             "};\n")
                  .empty());
  // A mutex *reference* is not ownership: no lock protocol declared here.
  EXPECT_TRUE(state_lint_one("class Lock {\n"
                             "  util::Mutex& mu_;\n"
                             "};\n")
                  .empty());
}

TEST(SimlintState, AllowOnMemberSuppresses) {
  EXPECT_TRUE(state_lint_one(
                  "class C {\n"
                  "  std::mutex mu_;\n"
                  "  // Set once in the constructor. "
                  "simlint:allow(unguarded-shared)\n"
                  "  std::vector<std::thread> threads_;\n"
                  "};\n")
                  .empty());
}

TEST(SimlintState, AllowlistSuppressesByFileAndName) {
  Counts counts;
  const auto f = check_shared_state({lex("src/obs/metrics.cpp",
                                         "static MetricsRegistry registry;\n"
                                         "static int g_other = 0;\n")},
                                    counts,
                                    {{"src/obs/metrics.cpp", "registry"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("g_other"), std::string::npos);
}

TEST(SimlintState, ReportCountsAllowedSitesAndIsDeterministic) {
  const auto build = [] {
    Counts counts;
    state_check({{"src/x.cpp",
                  "int g_a = 0;  // simlint:allow(mutable-global)\n"
                  "int g_b = 0;\n"},
                 {"src/y.hpp",
                  "class C {\n"
                  "  std::mutex mu_;\n"
                  "  int n_ SCION_GUARDED_BY(mu_) = 0;\n"
                  "};\n"}},
                counts);
    return report_json(counts);
  };
  const std::string report = build();
  EXPECT_EQ(report, build());
  // Allowed sites still count: the report is the budget, lint is the gate.
  EXPECT_NE(report.find("\"src/x.cpp\", \"counts\": {\"guarded-member\": 0, "
                        "\"mutable-global\": 2, \"unguarded-shared\": 0}"),
            std::string::npos);
  EXPECT_NE(report.find("\"src/y.hpp\", \"counts\": {\"guarded-member\": 1, "
                        "\"mutable-global\": 0, \"unguarded-shared\": 0}"),
            std::string::npos);
}

TEST(SimlintState, BaselineDiffFlagsIncreasesOnly) {
  const std::string baseline = report_json(
      state_counts("int g_a = 0;  // simlint:allow(mutable-global)\n"));

  // Same counts: clean.
  EXPECT_TRUE(
      diff_baseline(
          state_counts("int g_a = 0;  // simlint:allow(mutable-global)\n"),
          baseline)
          .empty());

  // One more global in the same file: exactly one regression finding that
  // names the file and the rule.
  const auto regressions = diff_baseline(
      state_counts("int g_a = 0;  // simlint:allow(mutable-global)\n"
                   "int g_b = 0;  // simlint:allow(mutable-global)\n"),
      baseline);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].rule, "baseline-regression");
  EXPECT_EQ(regressions[0].file, "src/x.cpp");
  EXPECT_NE(regressions[0].message.find("mutable-global"), std::string::npos);

  // A file absent from the baseline counts as zero everywhere.
  EXPECT_EQ(diff_baseline(state_counts("int g_new = 0;  "
                                       "// simlint:allow(mutable-global)\n",
                                       "src/fresh.cpp"),
                          baseline)
                .size(),
            1u);

  // Fewer findings than baseline is fine (progress, not regression).
  EXPECT_TRUE(diff_baseline(state_counts("void f();\n"), baseline).empty());
}

// --- count inventory (simlint_source.hpp) ------------------------------------

TEST(SimlintInventory, HotAndStateCountsShareOneReport) {
  Counts counts;
  check_hot_paths({lex("src/core/x.cpp",
                       "SCION_HOT_FN\nvoid f() {\n  x.push_back(1);\n}\n")},
                  counts);
  state_check({{"src/core/x.cpp", "int g_a = 0;\n"}}, counts);
  EXPECT_EQ(report_json(counts),
            "{\n  \"version\": 2,\n  \"files\": [\n"
            "    {\"file\": \"src/core/x.cpp\", \"counts\": {"
            "\"guarded-member\": 0, \"hot-alloc\": 1, \"hot-copy-arg\": 0, "
            "\"hot-lines\": 4, \"hot-map-lookup\": 0, \"hot-string\": 0, "
            "\"hot-unlabeled-schedule\": 0, \"mutable-global\": 1, "
            "\"unguarded-shared\": 0}}\n  ]\n}\n");
}

TEST(SimlintInventory, HotLinesAndGuardedMembersAreUngated) {
  const Counts counts{{"src/x.cpp", {{"hot-lines", 9}, {"guarded-member", 3}}}};
  EXPECT_TRUE(diff_baseline(counts, report_json({})).empty());
  // Any gated rule is compared, including one an earlier report lacked.
  const auto f = diff_baseline({{"src/x.cpp", {{"hot-string", 1}}}},
                               report_json(counts));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/x.cpp");
  EXPECT_EQ(f[0].line, 0);
}

}  // namespace
}  // namespace scion::lint
