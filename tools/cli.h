/**
 * @file
 * Shared command-line parsing for the repo's executables (the tools
 * and the bench binaries): one option table, one --help format and one
 * unknown-option diagnostic.
 *
 * The common observability flags are standardized here too:
 *
 *   --seed N    RNG seed
 *   --smoke     shrunken fast-CI variant of the run
 *   --json      emit the obs::Snapshot to stdout        (tools)
 *   --json P    mirror rows into a JSON array at path P (benches)
 *
 * Header-only; no state beyond the option table.
 */

#ifndef PMNET_TOOLS_CLI_H
#define PMNET_TOOLS_CLI_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace pmnet::cli {

/** Declarative option table + parser for one executable. */
class ArgParser
{
  public:
    ArgParser(std::string tool, std::string summary)
        : tool_(std::move(tool)), summary_(std::move(summary))
    {
    }

    /** A boolean switch (no value). */
    void
    flag(const char *name, const char *help, bool *out)
    {
        Spec spec;
        spec.name = name;
        spec.help = help;
        spec.apply = [out](const char *) { *out = true; };
        specs_.push_back(std::move(spec));
    }

    /** A valued option; @p apply receives the raw value text. */
    void
    option(const char *name, const char *metavar, const char *help,
           std::function<void(const char *)> apply)
    {
        Spec spec;
        spec.name = name;
        spec.metavar = metavar;
        spec.help = help;
        spec.apply = std::move(apply);
        specs_.push_back(std::move(spec));
    }

    /** @name Typed conveniences
     *  @{
     */
    void
    optionInt(const char *name, const char *metavar, const char *help,
              int *out)
    {
        option(name, metavar, help,
               [out](const char *text) { *out = std::atoi(text); });
    }

    void
    optionUnsigned(const char *name, const char *metavar,
                   const char *help, unsigned *out)
    {
        option(name, metavar, help, [out](const char *text) {
            *out = static_cast<unsigned>(std::atoi(text));
        });
    }

    void
    optionUint64(const char *name, const char *metavar, const char *help,
                 std::uint64_t *out)
    {
        option(name, metavar, help, [out](const char *text) {
            *out = static_cast<std::uint64_t>(std::atoll(text));
        });
    }

    void
    optionSize(const char *name, const char *metavar, const char *help,
               std::size_t *out)
    {
        option(name, metavar, help, [out](const char *text) {
            *out = static_cast<std::size_t>(std::atoll(text));
        });
    }

    void
    optionDouble(const char *name, const char *metavar, const char *help,
                 double *out)
    {
        option(name, metavar, help,
               [out](const char *text) { *out = std::atof(text); });
    }

    void
    optionString(const char *name, const char *metavar, const char *help,
                 std::string *out)
    {
        option(name, metavar, help,
               [out](const char *text) { *out = text; });
    }
    /** @} */

    std::string
    usageText() const
    {
        std::string out = tool_ + " — " + summary_ + "\n\n";
        for (const Spec &spec : specs_) {
            std::string left = "  " + spec.name;
            if (!spec.metavar.empty())
                left += " " + spec.metavar;
            if (left.size() < 24)
                left.append(24 - left.size(), ' ');
            else
                left += "  ";
            out += left + spec.help + "\n";
        }
        return out;
    }

    /**
     * Parse @p argv. Handles --help/-h by printing the usage text and
     * exiting 0; an unknown option or missing value prints the usage
     * to stderr and exits 1. With @p allow_unknown, unrecognized
     * arguments are skipped instead (BenchJson's historical
     * tolerance).
     */
    void
    parse(int argc, char **argv, bool allow_unknown = false)
    {
        for (int i = 1; i < argc; i++) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--help") == 0 ||
                std::strcmp(arg, "-h") == 0) {
                std::fputs(usageText().c_str(), stdout);
                std::exit(0);
            }
            const Spec *match = nullptr;
            for (const Spec &spec : specs_) {
                if (spec.name == arg) {
                    match = &spec;
                    break;
                }
            }
            if (!match) {
                if (allow_unknown)
                    continue;
                std::fprintf(stderr, "%s: unknown option '%s'\n\n",
                             tool_.c_str(), arg);
                std::fputs(usageText().c_str(), stderr);
                std::exit(1);
            }
            if (match->metavar.empty()) {
                match->apply("");
                continue;
            }
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             tool_.c_str(), arg);
                std::exit(1);
            }
            match->apply(argv[++i]);
        }
    }

  private:
    struct Spec
    {
        std::string name;
        std::string metavar; ///< empty = boolean flag
        std::string help;
        std::function<void(const char *)> apply;
    };

    std::string tool_;
    std::string summary_;
    std::vector<Spec> specs_;
};

/** The flags every executable shares. */
struct CommonOptions
{
    std::uint64_t seed = 42;
    bool smoke = false;
    bool json = false;      ///< --json as a switch (snapshot to stdout)
    std::string jsonPath;   ///< --json <path> (bench row files)
};

inline void
addSeed(ArgParser &parser, CommonOptions &opts)
{
    parser.optionUint64("--seed", "N", "RNG seed", &opts.seed);
}

inline void
addSmoke(ArgParser &parser, CommonOptions &opts)
{
    parser.flag("--smoke", "fast CI variant (shrunken run)",
                &opts.smoke);
}

/** Tools: --json prints the obs::Snapshot to stdout. */
inline void
addJsonFlag(ArgParser &parser, CommonOptions &opts)
{
    parser.flag("--json", "machine-readable snapshot on stdout",
                &opts.json);
}

/** Benches: --json <path> mirrors each row into a JSON array file. */
inline void
addJsonPath(ArgParser &parser, CommonOptions &opts)
{
    parser.optionString("--json", "PATH",
                        "mirror result rows into a JSON array at PATH",
                        &opts.jsonPath);
}

} // namespace pmnet::cli

#endif // PMNET_TOOLS_CLI_H
