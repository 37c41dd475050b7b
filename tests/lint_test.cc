/**
 * @file
 * Static determinism lint tests (DESIGN.md §13): bms-lint rule
 * fixtures — one planted violation per rule R1-R5 plus the
 * suppression machinery.
 *
 * The planted violations live inside string literals, which the
 * linter blanks before matching — so this file stays clean when the
 * real lint pass runs over tests/.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hh"

using namespace bms;

namespace {

/** Rules triggered by @p content linted as @p path, sorted. */
std::vector<std::string>
rulesIn(const std::string &path, const std::string &content,
        const std::string &header = "")
{
    std::vector<std::string> out;
    for (const lint::Violation &v : lint::lintContent(path, content, header))
        out.push_back(v.rule);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// bms-lint rule fixtures (one planted violation per rule)
// ---------------------------------------------------------------------

TEST(BmsLint, R1FlagsWallClockInSimulationCode)
{
    std::string fixture = "void f() {\n"
                          "    long t = time(nullptr);\n"
                          "}\n";
    EXPECT_EQ(rulesIn("src/core/fixture.cc", fixture),
              std::vector<std::string>{"wall-clock"});
    // Wall timers are legitimate in tools/ and bench/.
    EXPECT_TRUE(rulesIn("tools/bms-lint/fixture.cc", fixture).empty());
    EXPECT_TRUE(rulesIn("bench/fixture.cc", fixture).empty());
}

TEST(BmsLint, R1FlagsEntropySources)
{
    EXPECT_EQ(rulesIn("src/sim/fixture.cc",
                      "int f() { return rand(); }\n"),
              std::vector<std::string>{"wall-clock"});
    EXPECT_EQ(rulesIn("src/sim/fixture.cc",
                      "#include <random>\n"
                      "std::random_device rd;\n"),
              std::vector<std::string>{"wall-clock"});
}

TEST(BmsLint, R2FlagsRangeForOverUnorderedContainer)
{
    std::string fixture = "#include <unordered_map>\n"
                          "std::unordered_map<int, int> table;\n"
                          "int sum() {\n"
                          "    int s = 0;\n"
                          "    for (auto &kv : table)\n"
                          "        s += kv.second;\n"
                          "    return s;\n"
                          "}\n";
    EXPECT_EQ(rulesIn("src/core/fixture.cc", fixture),
              std::vector<std::string>{"unordered-iter"});
}

TEST(BmsLint, R2UsesThePairedHeaderForMemberDeclarations)
{
    // The member is declared in the header; the .cc only iterates it.
    std::string header = "struct S {\n"
                         "    std::unordered_map<int, int> _members;\n"
                         "};\n";
    std::string source = "void S::visit() {\n"
                         "    for (auto &kv : _members) { (void)kv; }\n"
                         "}\n";
    EXPECT_EQ(rulesIn("src/core/fixture.cc", source, header),
              std::vector<std::string>{"unordered-iter"});
    // Without the header the variable's type is unknown: no finding.
    EXPECT_TRUE(rulesIn("src/core/fixture.cc", source).empty());
}

TEST(BmsLint, R3FlagsPointerOrdering)
{
    EXPECT_EQ(rulesIn("src/core/fixture.cc",
                      "#include <map>\n"
                      "struct Obj;\n"
                      "std::map<Obj *, int> byAddress;\n"),
              std::vector<std::string>{"pointer-order"});
    EXPECT_EQ(rulesIn("src/core/fixture.cc",
                      "bool less(void *a) {\n"
                      "    return reinterpret_cast<uintptr_t>(a) < 64;\n"
                      "}\n"),
              std::vector<std::string>{"pointer-order"});
}

TEST(BmsLint, R4FlagsBareAssertUnderSrc)
{
    std::string fixture = "#include <cassert>\n"
                          "void f(int x) { assert(x > 0); }\n";
    EXPECT_EQ(rulesIn("src/core/fixture.cc", fixture),
              std::vector<std::string>{"bare-assert"});
    // tests/ may use raw assert (gtest shims, fixtures).
    EXPECT_TRUE(rulesIn("tests/fixture.cc", fixture).empty());
}

TEST(BmsLint, R5FlagsEpsilonTickOffsets)
{
    EXPECT_EQ(rulesIn("src/core/fixture.cc",
                      "void f(unsigned long when) {\n"
                      "    schedule(when + 1, [] {});\n"
                      "}\n"),
              std::vector<std::string>{"tick-epsilon"});
    // The (when, seq) API needs no offset: same tick is fine.
    EXPECT_TRUE(rulesIn("src/core/fixture.cc",
                        "void f(unsigned long when) {\n"
                        "    schedule(when, [] {});\n"
                        "}\n")
                    .empty());
}

TEST(BmsLint, AllowWithReasonSuppresses)
{
    std::string fixture =
        "void f() {\n"
        "    // BMS_LINT_ALLOW(wall-clock): fixture needs real time\n"
        "    long t = time(nullptr);\n"
        "}\n";
    EXPECT_TRUE(rulesIn("src/core/fixture.cc", fixture).empty());
}

TEST(BmsLint, AllowWithoutReasonIsItselfAViolation)
{
    std::string fixture = "void f() {\n"
                          "    // BMS_LINT_ALLOW(wall-clock)\n"
                          "    long t = time(nullptr);\n"
                          "}\n";
    std::vector<std::string> rules = rulesIn("src/core/fixture.cc", fixture);
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0], "allow-without-reason");
    EXPECT_EQ(rules[1], "wall-clock");
}

TEST(BmsLint, CatalogListsAllFiveRules)
{
    std::vector<lint::RuleInfo> cat = lint::ruleCatalog();
    ASSERT_EQ(cat.size(), 5u);
    EXPECT_STREQ(cat[0].id, "wall-clock");
    EXPECT_STREQ(cat[1].id, "unordered-iter");
    EXPECT_STREQ(cat[2].id, "pointer-order");
    EXPECT_STREQ(cat[3].id, "bare-assert");
    EXPECT_STREQ(cat[4].id, "tick-epsilon");
}
