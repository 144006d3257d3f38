// Hot-path region annotations for the simlint `hot-path-cost` analyzer.
//
// The Fig. 5 overhead run spends ~295 of ~297 s in the beaconing inner
// loop (20.6M PCBs received), so per-event heap allocations, large-value
// copies and string formatting there dominate wall time. These macros mark
// the per-event code regions; tools/simlint_hotpath.hpp then flags the
// costly constructs *inside* them (heap allocation, std::string building,
// by-value passing of large domain types, per-event map lookups) and
// counts them in the deterministic lint report that tools/lint_baseline.json
// gates.
//
// The macros expand to plain no-op statements — they exist as lexical
// markers for the token-scanning linter (which strips comments, so the
// markers must be real code tokens) and as searchable documentation that a
// region is on the per-PCB / per-update fast path.
//
// Two forms:
//
//   SCION_HOT_FN                          // marks the whole function that
//   void BeaconServer::handle_pcb(...) {  // starts on a following line;
//     ...                                 // region ends at its closing
//   }                                     // brace
//
//   SCION_HOT_PATH_BEGIN(pcb_admission);  // explicit sub-region, for hot
//   ...                                   // loops inside otherwise-cold
//   SCION_HOT_PATH_END();                 // functions (e.g. a constructor
//                                         // installing a hot handler)
//
// Cost findings are suppressed like any other simlint rule, with
// `// simlint:allow(hot-alloc)` etc. on or above the offending line; every
// allow is still counted in the cost report, so suppressed sites cannot
// creep without failing the baseline diff. See DESIGN.md "Hot-path
// annotation recipe".
#pragma once

// The linter scans source text, not preprocessed output, so the expansions
// can be (and are) no-ops: annotated code is zero-cost in every build mode.
#define SCION_HOT_PATH_BEGIN(label) static_assert(true)
#define SCION_HOT_PATH_END() static_assert(true)
#define SCION_HOT_FN
