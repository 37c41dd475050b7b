/**
 * @file
 * bms-lint CLI — see lint.hh for the rule catalog.
 *
 *   bms-lint [--as-path=PATH] FILE...          lint source files
 *   bms-lint --list-rules                      print the catalog
 *
 * Exit status: 0 clean, 1 violations, 2 usage or I/O error. Output
 * is one `file:line: [rule] message` per violation — the format
 * scripts/check.sh and editors expect.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lint.hh"

int
main(int argc, char **argv)
{
    using namespace bms::lint;

    std::string asPath;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--list-rules") == 0) {
            for (const RuleInfo &r : ruleCatalog())
                std::printf("%-15s %s\n", r.id, r.summary);
            return 0;
        } else if (std::strncmp(a, "--as-path=", 10) == 0) {
            asPath = a + 10;
        } else if (a[0] == '-' && a[1] == '-') {
            std::fprintf(stderr, "bms-lint: unknown flag %s\n", a);
            return 2;
        } else {
            files.emplace_back(a);
        }
    }

    if (files.empty()) {
        std::fprintf(stderr,
                     "usage: bms-lint [--as-path=PATH] FILE...\n"
                     "       bms-lint --list-rules\n");
        return 2;
    }
    if (!asPath.empty() && files.size() != 1) {
        std::fprintf(stderr,
                     "bms-lint: --as-path applies to exactly one "
                     "file\n");
        return 2;
    }

    std::size_t total = 0;
    bool ioError = false;
    for (const std::string &f : files) {
        for (const Violation &v : lintFile(f, asPath)) {
            std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                        v.rule.c_str(), v.message.c_str());
            ++total;
            if (v.rule == "io-error")
                ioError = true;
        }
    }
    if (ioError)
        return 2;
    if (total > 0) {
        std::fprintf(stderr, "bms-lint: %zu violation(s)\n", total);
        return 1;
    }
    return 0;
}
