/**
 * @file
 * bms-lint — project-specific static determinism checker
 * (DESIGN.md §13).
 *
 * Everything the repro guarantees — byte-identical seed replays and
 * the write-stamp oracle — rests on the simulator being perfectly
 * deterministic. clang-tidy cannot
 * express the project rules that protect that property, so this
 * checker enforces them lexically, file by file:
 *
 *  R1 `wall-clock`     — no wall-clock or entropy source in
 *                        simulation code (std::chrono::system_clock /
 *                        steady_clock / high_resolution_clock,
 *                        time(), clock(), gettimeofday(), rand(),
 *                        srand(), std::random_device). Wall timers
 *                        belong in tools/ and bench/ only.
 *  R2 `unordered-iter` — no range-for or `.begin()` iteration over an
 *                        `std::unordered_*` container in src/:
 *                        iteration order is libstdc++-version- and
 *                        hash-state-dependent, and silently leaks
 *                        into event scheduling, ID assignment and
 *                        stats. Iterate a sorted copy, use std::map,
 *                        or annotate the loop order-insensitive.
 *  R3 `pointer-order`  — no pointer values as an ordering: pointer
 *                        keys in std::map/std::set, std::less<T*>,
 *                        or reinterpret_cast to uintptr_t. Addresses
 *                        differ run to run (ASLR, allocator state),
 *                        so any order derived from them is
 *                        nondeterministic.
 *  R4 `bare-assert`    — no bare assert() under src/: invariants must
 *                        use BMS_ASSERT / BMS_PANIC so failures report
 *                        the simulated tick and component and honor
 *                        PanicMode (closes PR 1's loophole for new
 *                        code).
 *  R5 `tick-epsilon`   — no ad-hoc epsilon offsets (`when + 1`,
 *                        `deadline - 2`, `x + kEpsilon`) in schedule
 *                        calls to break same-tick ties: the EventQueue
 *                        already orders same-tick events by a global
 *                        (when, seq) sequence; epsilon hacks encode
 *                        ordering in magic tick arithmetic that
 *                        breaks when delays change.
 *
 * Suppression: `// BMS_LINT_ALLOW(<rule>): <reason>` on the violating
 * line or the line directly above suppresses that rule there;
 * `BMS_LINT_ALLOW(all)` suppresses every rule. The reason is
 * mandatory — an ALLOW without one is itself a violation
 * (`allow-without-reason`), so every suppression in the tree is
 * self-documenting.
 *
 * The checker is lexical by design (no compiler, no AST): it blanks
 * comments and string literals, tracks unordered-container variable
 * names declared in the file *and in its paired header* (foo.cc pulls
 * declarations from foo.hh/h in the same directory, since members are
 * declared there and iterated in the .cc), and pattern-matches the
 * rules above. That catches the realistic mistakes cheaply; it is not
 * a proof. `--as-path` overrides the path used for rule scoping so
 * test fixtures stored elsewhere can exercise path-scoped rules.
 */

#ifndef BMS_TOOLS_LINT_HH
#define BMS_TOOLS_LINT_HH

#include <string>
#include <vector>

namespace bms::lint {

/** One rule violation at a source location. */
struct Violation
{
    std::string file;    ///< path as reported (scoping path)
    int line = 0;        ///< 1-based
    std::string rule;    ///< rule id, e.g. "unordered-iter"
    std::string message; ///< human-readable explanation
};

/** Rule catalog entry (for --list-rules and docs). */
struct RuleInfo
{
    const char *id;
    const char *summary;
};

/** The rule catalog, R1..R5 in order. */
std::vector<RuleInfo> ruleCatalog();

/**
 * Lint @p content as if it were the file at @p path (which drives
 * rule scoping and is echoed into violations). @p headerContent is
 * the paired header's content ("" when none): only its
 * unordered-container declarations are used; violations inside the
 * header are reported when the header itself is linted.
 */
std::vector<Violation> lintContent(const std::string &path,
                                   const std::string &content,
                                   const std::string &headerContent = "");

/**
 * Lint the file at @p filePath. @p asPath overrides the path used
 * for rule scoping/reporting (fixtures); "" means use @p filePath.
 * The paired header (same stem, .hh/.h, same directory) is loaded
 * automatically when present.
 * @return violations; a single "io-error" violation when unreadable.
 */
std::vector<Violation> lintFile(const std::string &filePath,
                                const std::string &asPath = "");

} // namespace bms::lint

#endif // BMS_TOOLS_LINT_HH
