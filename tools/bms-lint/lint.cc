#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace bms::lint {

namespace {

// ---------------------------------------------------------------------
// Lexical preprocessing
// ---------------------------------------------------------------------

/** Comments and string/char literals blanked to spaces (newlines
 *  kept, so offsets and line numbers survive), plus the comment text
 *  collected per line for BMS_LINT_ALLOW scanning. */
struct Stripped
{
    std::string code;
    std::map<int, std::string> comments; ///< line (1-based) → text
    std::vector<std::size_t> lineStarts; ///< offset of each line
};

int
lineOf(const Stripped &s, std::size_t off)
{
    auto it = std::upper_bound(s.lineStarts.begin(), s.lineStarts.end(),
                               off);
    return static_cast<int>(it - s.lineStarts.begin());
}

Stripped
strip(const std::string &in)
{
    Stripped out;
    out.code = in;
    out.lineStarts.push_back(0);
    int line = 1;

    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        Str,
        Chr,
        RawStr,
    };
    St st = St::Code;
    std::string rawDelim; // for R"delim( ... )delim"

    auto blank = [&](std::size_t i) { out.code[i] = ' '; };
    auto comment = [&](int ln, char c) {
        if (c != '\n')
            out.comments[ln].push_back(c);
    };

    for (std::size_t i = 0; i < in.size(); ++i) {
        char c = in[i];
        char n = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                blank(i);
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '"') {
                // Raw string literal R"delim( ... )delim"?
                if (i > 0 && in[i - 1] == 'R' &&
                    (i < 2 || !(std::isalnum(
                                    static_cast<unsigned char>(in[i - 2])) ||
                                in[i - 2] == '_'))) {
                    std::size_t p = i + 1;
                    rawDelim.clear();
                    while (p < in.size() && in[p] != '(')
                        rawDelim.push_back(in[p++]);
                    st = St::RawStr;
                } else {
                    st = St::Str;
                }
                blank(i);
            } else if (c == '\'') {
                st = St::Chr;
                blank(i);
            }
            break;
        case St::LineComment:
            if (c == '\n')
                st = St::Code;
            else {
                comment(line, c);
                blank(i);
            }
            break;
        case St::BlockComment:
            if (c == '*' && n == '/') {
                st = St::Code;
                blank(i);
                blank(i + 1);
                ++i;
            } else {
                comment(line, c);
                if (c != '\n')
                    blank(i);
            }
            break;
        case St::Str:
            if (c == '\\' && n != '\0') {
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '"') {
                st = St::Code;
                blank(i);
            } else if (c != '\n') {
                blank(i);
            }
            break;
        case St::Chr:
            if (c == '\\' && n != '\0') {
                blank(i);
                blank(i + 1);
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                blank(i);
            } else if (c != '\n') {
                blank(i);
            }
            break;
        case St::RawStr: {
            std::string close = ")" + rawDelim + "\"";
            if (in.compare(i, close.size(), close) == 0) {
                for (std::size_t k = 0; k < close.size(); ++k)
                    blank(i + k);
                i += close.size() - 1;
                st = St::Code;
            } else if (c != '\n') {
                blank(i);
            }
            break;
        }
        }
        if (c == '\n') {
            ++line;
            out.lineStarts.push_back(i + 1);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Small scanning helpers (operate on blanked code)
// ---------------------------------------------------------------------

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** True when code[pos..] starts the identifier @p name (whole token). */
bool
identAt(const std::string &code, std::size_t pos, const std::string &name)
{
    if (code.compare(pos, name.size(), name) != 0)
        return false;
    if (pos > 0 && identChar(code[pos - 1]))
        return false;
    std::size_t end = pos + name.size();
    return end >= code.size() || !identChar(code[end]);
}

std::size_t
skipWsBack(const std::string &code, std::size_t pos)
{
    while (pos > 0 && std::isspace(static_cast<unsigned char>(code[pos])))
        --pos;
    return pos;
}

std::size_t
skipWsFwd(const std::string &code, std::size_t pos)
{
    while (pos < code.size() &&
           std::isspace(static_cast<unsigned char>(code[pos])))
        ++pos;
    return pos;
}

/** Is the identifier at @p pos a member access (`.name` / `->name`)? */
bool
isMemberAccess(const std::string &code, std::size_t pos)
{
    if (pos == 0)
        return false;
    std::size_t p = skipWsBack(code, pos - 1);
    if (code[p] == '.')
        return true;
    return code[p] == '>' && p > 0 && code[p - 1] == '-';
}

/** Offset just past the matching '>' for the '<' at @p open. */
std::size_t
matchAngle(const std::string &code, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        char c = code[i];
        if (c == '<')
            ++depth;
        else if (c == '>') {
            if (--depth == 0)
                return i + 1;
        } else if (c == ';' || c == '{')
            break; // not a template argument list after all
    }
    return std::string::npos;
}

/** Offset just past the matching ')' for the '(' at @p open,
 *  npos when unterminated. */
std::size_t
matchParen(const std::string &code, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        char c = code[i];
        if (c == '(')
            ++depth;
        else if (c == ')') {
            if (--depth == 0)
                return i + 1;
        }
    }
    return std::string::npos;
}

// ---------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------

bool
underDir(const std::string &path, const std::string &dir)
{
    if (path.rfind(dir + "/", 0) == 0)
        return true;
    return path.find("/" + dir + "/") != std::string::npos;
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

void
ruleWallClock(const std::string &path, const Stripped &s,
              std::vector<Violation> &out)
{
    struct Pat
    {
        const char *name;
        bool needsParen;  ///< function-like: require a following '('
        bool skipMember;  ///< `.name()` / `->name()` is something else
    };
    static const Pat pats[] = {
        {"system_clock", false, false},
        {"steady_clock", false, false},
        {"high_resolution_clock", false, false},
        {"random_device", false, false},
        {"gettimeofday", true, false},
        {"getrandom", true, false},
        {"time", true, true},
        {"clock", true, true},
        {"rand", true, true},
        {"srand", true, false},
    };
    const std::string &code = s.code;
    for (const Pat &p : pats) {
        std::string name = p.name;
        for (std::size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
            if (!identAt(code, pos, name))
                continue;
            if (p.needsParen) {
                std::size_t after = skipWsFwd(code, pos + name.size());
                if (after >= code.size() || code[after] != '(')
                    continue;
            }
            if (p.skipMember && isMemberAccess(code, pos))
                continue;
            out.push_back({path, lineOf(s, pos), "wall-clock",
                           "'" + name +
                               "' is a wall-clock/entropy source; "
                               "simulation code must draw time from "
                               "sim::Simulator::now() and randomness "
                               "from the seeded sim::Rng (wall timers "
                               "belong in tools/ or bench/)"});
        }
    }
}

/** Variable names declared as std::unordered_* in @p code. */
std::set<std::string>
unorderedNames(const std::string &code)
{
    std::set<std::string> names;
    static const char *kinds[] = {"unordered_map", "unordered_multimap",
                                  "unordered_set", "unordered_multiset"};
    for (const char *kind : kinds) {
        std::string k = kind;
        for (std::size_t pos = code.find(k); pos != std::string::npos;
             pos = code.find(k, pos + 1)) {
            if (!identAt(code, pos, k))
                continue;
            std::size_t lt = skipWsFwd(code, pos + k.size());
            if (lt >= code.size() || code[lt] != '<')
                continue;
            std::size_t end = matchAngle(code, lt);
            if (end == std::string::npos)
                continue;
            std::size_t id = skipWsFwd(code, end);
            // Skip references/pointers: `unordered_map<...> &m`.
            while (id < code.size() && (code[id] == '&' || code[id] == '*'))
                id = skipWsFwd(code, id + 1);
            std::size_t idEnd = id;
            while (idEnd < code.size() && identChar(code[idEnd]))
                ++idEnd;
            if (idEnd == id)
                continue; // alias/return type with no declarator here
            std::size_t nxt = skipWsFwd(code, idEnd);
            if (nxt < code.size() && code[nxt] == '(')
                continue; // function declaration returning the map
            names.insert(code.substr(id, idEnd - id));
        }
    }
    return names;
}

void
ruleUnorderedIter(const std::string &path, const Stripped &s,
                  const std::set<std::string> &names,
                  std::vector<Violation> &out)
{
    const std::string &code = s.code;
    for (const std::string &name : names) {
        for (std::size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
            if (!identAt(code, pos, name))
                continue;
            // Range-for: `for (... : name)` — walk back over any
            // object qualification (`obj._map`, `this->_map`) to the
            // preceding token and look for a single ':'.
            std::size_t p = pos;
            while (p > 0) {
                std::size_t q = skipWsBack(code, p - 1);
                if (code[q] == '.') {
                    p = q;
                } else if (code[q] == '>' && q > 0 && code[q - 1] == '-') {
                    p = q - 1;
                } else if (identChar(code[q])) {
                    while (q > 0 && identChar(code[q - 1]))
                        --q;
                    p = q;
                } else {
                    p = q + 1;
                    break;
                }
            }
            bool rangeFor = false;
            if (p > 0) {
                std::size_t q = skipWsBack(code, p - 1);
                rangeFor = code[q] == ':' && (q == 0 || code[q - 1] != ':');
            }
            // Iterator loop / algorithm: `name.begin()` etc.
            std::size_t after = skipWsFwd(code, pos + name.size());
            bool begins = false;
            for (const char *m : {".begin", ".cbegin", "->begin",
                                  "->cbegin"}) {
                std::string mm = m;
                if (code.compare(after, mm.size(), mm) == 0 &&
                    skipWsFwd(code, after + mm.size()) < code.size() &&
                    code[skipWsFwd(code, after + mm.size())] == '(') {
                    begins = true;
                    break;
                }
            }
            if (!rangeFor && !begins)
                continue;
            out.push_back(
                {path, lineOf(s, pos), "unordered-iter",
                 "iteration over unordered container '" + name +
                     "': iteration order is hash/libstdc++-dependent "
                     "and breaks seed replay when it reaches "
                     "scheduling, ID assignment or stats — iterate a "
                     "sorted copy, use std::map, or annotate "
                     "// BMS_LINT_ALLOW(unordered-iter): <why "
                     "order-insensitive>"});
        }
    }
}

void
rulePointerOrder(const std::string &path, const Stripped &s,
                 std::vector<Violation> &out)
{
    const std::string &code = s.code;
    struct Tpl
    {
        const char *name;
        const char *what;
    };
    static const Tpl tpls[] = {
        {"map", "std::map key"},
        {"set", "std::set key"},
        {"multimap", "std::multimap key"},
        {"multiset", "std::multiset key"},
        {"less", "std::less argument"},
    };
    for (const Tpl &t : tpls) {
        std::string name = t.name;
        for (std::size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
            if (!identAt(code, pos, name))
                continue;
            // Require std:: qualification so local identifiers named
            // `map`/`set` don't trip the rule.
            if (pos < 2 || code.compare(pos - 2, 2, "::") != 0)
                continue;
            std::size_t lt = skipWsFwd(code, pos + name.size());
            if (lt >= code.size() || code[lt] != '<')
                continue;
            // First template argument: up to a top-level ',' or the
            // matching '>'.
            int depth = 0;
            std::size_t argEnd = std::string::npos;
            for (std::size_t i = lt; i < code.size(); ++i) {
                char c = code[i];
                if (c == '<')
                    ++depth;
                else if (c == '>') {
                    if (--depth == 0) {
                        argEnd = i;
                        break;
                    }
                } else if (c == ',' && depth == 1) {
                    argEnd = i;
                    break;
                } else if (c == ';' || c == '{')
                    break;
            }
            if (argEnd == std::string::npos)
                continue;
            std::string arg = code.substr(lt + 1, argEnd - lt - 1);
            while (!arg.empty() &&
                   std::isspace(static_cast<unsigned char>(arg.back())))
                arg.pop_back();
            if (arg.empty() || arg.back() != '*')
                continue;
            out.push_back(
                {path, lineOf(s, pos), "pointer-order",
                 std::string(t.what) + " '" + arg +
                     "' orders by pointer value: addresses change run "
                     "to run, so the resulting order is "
                     "nondeterministic — key by a stable id instead"});
        }
    }
    for (const char *cast : {"reinterpret_cast<std::uintptr_t>",
                             "reinterpret_cast<uintptr_t>",
                             "reinterpret_cast<std::intptr_t>",
                             "reinterpret_cast<intptr_t>"}) {
        std::string c = cast;
        for (std::size_t pos = code.find(c); pos != std::string::npos;
             pos = code.find(c, pos + c.size())) {
            out.push_back({path, lineOf(s, pos), "pointer-order",
                           "casting a pointer to an integer invites "
                           "address-derived ordering/keys, which are "
                           "nondeterministic — use a stable id"});
        }
    }
}

void
ruleBareAssert(const std::string &path, const Stripped &s,
               std::vector<Violation> &out)
{
    const std::string &code = s.code;
    for (std::size_t pos = code.find("assert"); pos != std::string::npos;
         pos = code.find("assert", pos + 1)) {
        if (!identAt(code, pos, "assert"))
            continue;
        std::size_t after = skipWsFwd(code, pos + 6);
        if (after >= code.size() || code[after] != '(')
            continue;
        out.push_back({path, lineOf(s, pos), "bare-assert",
                       "bare assert() under src/: use BMS_ASSERT*/"
                       "BMS_PANIC so the failure reports the simulated "
                       "tick and component and honors PanicMode"});
    }
}

void
ruleTickEpsilon(const std::string &path, const Stripped &s,
                std::vector<Violation> &out)
{
    const std::string &code = s.code;
    static const char *tickish[] = {"when", "tick", "deadline", "due"};

    for (std::size_t pos = code.find("schedule"); pos != std::string::npos;
         pos = code.find("schedule", pos + 1)) {
        // Accept any schedule-family identifier: schedule, scheduleAt,
        // scheduleAfter, reschedule, rescheduleAt, ...
        std::size_t idStart = pos;
        while (idStart > 0 && identChar(code[idStart - 1]))
            --idStart;
        std::size_t idEnd = pos + 8;
        while (idEnd < code.size() && identChar(code[idEnd]))
            ++idEnd;
        std::string id = code.substr(idStart, idEnd - idStart);
        if (id.rfind("schedule", 0) != 0 && id.rfind("reschedule", 0) != 0)
            continue;
        std::size_t open = skipWsFwd(code, idEnd);
        if (open >= code.size() || code[open] != '(')
            continue;
        std::size_t close = matchParen(code, open);
        if (close == std::string::npos)
            continue;
        // Examine the argument list at brace depth 0 only (lambda
        // bodies legitimately contain arithmetic).
        std::string args;
        int brace = 0;
        for (std::size_t i = open + 1; i + 1 < close; ++i) {
            char c = code[i];
            if (c == '{')
                ++brace;
            else if (c == '}')
                --brace;
            else if (brace == 0)
                args.push_back(c);
        }
        bool hit = false;
        // `<tick-ish ident> +/- <integer literal>`
        for (std::size_t i = 0; i < args.size() && !hit; ++i) {
            if (!identChar(args[i]) || (i > 0 && identChar(args[i - 1])))
                continue;
            std::size_t e = i;
            while (e < args.size() && identChar(args[e]))
                ++e;
            std::string word = args.substr(i, e - i);
            std::string lower;
            for (char c : word)
                lower.push_back(static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c))));
            bool tickName = false;
            for (const char *t : tickish)
                if (lower.find(t) != std::string::npos)
                    tickName = true;
            if (!tickName)
                continue;
            std::size_t opPos = skipWsFwd(args, e);
            if (opPos >= args.size() ||
                (args[opPos] != '+' && args[opPos] != '-'))
                continue;
            if (opPos + 1 < args.size() &&
                (args[opPos + 1] == '+' || args[opPos + 1] == '-' ||
                 args[opPos + 1] == '='))
                continue; // ++/--/+= is not an epsilon offset
            std::size_t lit = skipWsFwd(args, opPos + 1);
            if (lit < args.size() &&
                std::isdigit(static_cast<unsigned char>(args[lit])))
                hit = true;
        }
        // `... +/- epsilon` by name, anywhere in the argument list.
        if (!hit) {
            std::string lower;
            for (char c : args)
                lower.push_back(static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c))));
            for (std::size_t i = lower.find("epsilon");
                 i != std::string::npos && !hit;
                 i = lower.find("epsilon", i + 1)) {
                std::size_t b = i;
                while (b > 0 && identChar(lower[b - 1]))
                    --b;
                if (b > 0) {
                    std::size_t q = skipWsBack(lower, b - 1);
                    if (lower[q] == '+' || lower[q] == '-')
                        hit = true;
                }
            }
        }
        if (hit) {
            out.push_back(
                {path, lineOf(s, pos), "tick-epsilon",
                 "'" + id +
                     "' with an ad-hoc tick offset to break a "
                     "same-tick tie: the EventQueue already orders "
                     "same-tick events deterministically by its "
                     "global (when, seq) sequence — schedule at the "
                     "real tick and rely on scheduling order"});
        }
    }
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/** Parsed BMS_LINT_ALLOW comment. */
struct Allow
{
    std::set<std::string> rules;
    bool hasReason = false;
};

bool
parseAllow(const std::string &comment, Allow &out)
{
    std::size_t pos = comment.find("BMS_LINT_ALLOW(");
    if (pos == std::string::npos)
        return false;
    std::size_t open = pos + 14;
    std::size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return true; // malformed: counts as reason-less
    std::string list = comment.substr(open + 1, close - open - 1);
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](unsigned char c) {
                                      return std::isspace(c);
                                  }),
                   rule.end());
        if (!rule.empty())
            out.rules.insert(rule);
    }
    std::size_t colon = comment.find(':', close);
    if (colon != std::string::npos) {
        for (std::size_t i = colon + 1; i < comment.size(); ++i) {
            if (!std::isspace(static_cast<unsigned char>(comment[i]))) {
                out.hasReason = true;
                break;
            }
        }
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

std::vector<RuleInfo>
ruleCatalog()
{
    return {
        {"wall-clock",
         "R1: no wall-clock/entropy (system_clock, time(), rand(), "
         "random_device, ...) outside tools/ and bench/"},
        {"unordered-iter",
         "R2: no range-for/begin() iteration over std::unordered_* in "
         "src/ unless annotated order-insensitive"},
        {"pointer-order",
         "R3: no pointer values as ordering keys (std::map<T*,..>, "
         "std::less<T*>, reinterpret_cast<uintptr_t>)"},
        {"bare-assert",
         "R4: no bare assert() under src/ — use BMS_ASSERT*/BMS_PANIC"},
        {"tick-epsilon",
         "R5: no ad-hoc epsilon tick offsets in schedule calls — "
         "same-tick ties are ordered by the (when, seq) API"},
    };
}

std::vector<Violation>
lintContent(const std::string &path, const std::string &content,
            const std::string &headerContent)
{
    Stripped s = strip(content);

    const bool inTools = underDir(path, "tools");
    const bool inBench = underDir(path, "bench");
    const bool inSrc = underDir(path, "src");
    const bool inTests = underDir(path, "tests");

    std::vector<Violation> raw;
    if (!inTools && !inBench)
        ruleWallClock(path, s, raw);
    if (inSrc) {
        std::set<std::string> names = unorderedNames(s.code);
        if (!headerContent.empty()) {
            std::set<std::string> h =
                unorderedNames(strip(headerContent).code);
            names.insert(h.begin(), h.end());
        }
        ruleUnorderedIter(path, s, names, raw);
        ruleBareAssert(path, s, raw);
        ruleTickEpsilon(path, s, raw);
    }
    if (inSrc || inTests)
        rulePointerOrder(path, s, raw);

    // Per-line "has code" map, so suppression search can walk up
    // through a multi-line comment block to find its ALLOW.
    auto lineHasCode = [&s](int ln) {
        if (ln < 1 || ln > static_cast<int>(s.lineStarts.size()))
            return false;
        std::size_t start = s.lineStarts[static_cast<std::size_t>(ln - 1)];
        std::size_t end = static_cast<std::size_t>(ln) <
                                  s.lineStarts.size()
                              ? s.lineStarts[static_cast<std::size_t>(ln)]
                              : s.code.size();
        for (std::size_t i = start; i < end; ++i)
            if (!std::isspace(static_cast<unsigned char>(s.code[i])))
                return true;
        return false;
    };

    // Apply suppressions: an ALLOW on the violating line, or anywhere
    // in the contiguous comment block directly above it, silences a
    // matching rule — if it carries a reason.
    std::vector<Violation> out;
    for (Violation &v : raw) {
        bool suppressed = false;
        bool reasonless = false;
        std::vector<int> lines{v.line};
        for (int ln = v.line - 1;
             ln >= 1 && s.comments.count(ln) && !lineHasCode(ln); --ln)
            lines.push_back(ln);
        for (int ln : lines) {
            auto it = s.comments.find(ln);
            if (it == s.comments.end())
                continue;
            Allow a;
            if (!parseAllow(it->second, a))
                continue;
            if (a.rules.count(v.rule) || a.rules.count("all")) {
                if (a.hasReason)
                    suppressed = true;
                else
                    reasonless = true;
                break;
            }
        }
        if (suppressed)
            continue;
        if (reasonless) {
            v.message += " [BMS_LINT_ALLOW present but carries no "
                         "reason — add ': <why>']";
        }
        out.push_back(std::move(v));
    }

    // Every ALLOW must carry a reason, even one whose rule never
    // fires (a stale reason-less ALLOW is how suppressions rot).
    for (const auto &[ln, text] : s.comments) {
        Allow a;
        if (!parseAllow(text, a))
            continue;
        if (!a.hasReason) {
            out.push_back({path, ln, "allow-without-reason",
                           "BMS_LINT_ALLOW without a reason: write "
                           "// BMS_LINT_ALLOW(<rule>): <why this is "
                           "safe>"});
        }
    }

    std::sort(out.begin(), out.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

std::vector<Violation>
lintFile(const std::string &filePath, const std::string &asPath)
{
    const std::string path = asPath.empty() ? filePath : asPath;
    std::ifstream f(filePath);
    if (!f) {
        return {{path, 0, "io-error", "cannot read " + filePath}};
    }
    std::stringstream buf;
    buf << f.rdbuf();

    // Paired header: foo.cc pulls unordered-container declarations
    // from foo.hh / foo.h next to it (members are declared in the
    // header and iterated in the .cc).
    std::string headerContent;
    std::size_t dot = filePath.rfind('.');
    if (dot != std::string::npos && filePath.substr(dot) == ".cc") {
        for (const char *ext : {".hh", ".h"}) {
            std::ifstream h(filePath.substr(0, dot) + ext);
            if (h) {
                std::stringstream hb;
                hb << h.rdbuf();
                headerContent = hb.str();
                break;
            }
        }
    }
    return lintContent(path, buf.str(), headerContent);
}

} // namespace bms::lint
