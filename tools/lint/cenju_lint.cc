/**
 * @file
 * cenju-lint: project-specific static analyzer (docs/ANALYSIS.md).
 *
 * The repo's hardest-won invariants are structural, not functional:
 * the Transport layering seam (docs/ARCHITECTURE.md), the
 * allocation-free hot-path rules (docs/PERF.md), and the
 * bit-identical determinism the golden digests certify. Generic
 * tools cannot express "protocol code may speak only transport/" or
 * "hot tables must hash with U64MixHash", so this tool does: a
 * dependency-free tokenizing scanner over the source tree (or the
 * file list of a compile_commands.json) that enforces a versioned
 * rule catalog and emits file:line diagnostics with stable rule IDs.
 *
 * Rule families (full catalog: --list-rules, docs/ANALYSIS.md):
 *   L*  include-layering DAG between src/ modules
 *   A*  hot-path allocation bans in pool-governed modules
 *   D*  determinism bans in digest-affecting modules
 *   X*  hygiene of the exemption mechanism itself
 *
 * Exemptions: a comment of the form
 *     <directive-prefix> allow(<RULE>): <justification>
 * (the prefix is the tool name followed by a colon; written split
 * here so this file's own comments never register directives)
 * suppresses <RULE> on its line, or on the next line when the
 * comment stands alone. The justification text is mandatory (X001)
 * and an exemption that suppresses nothing is itself an error
 * (X002), so stale escapes cannot accumulate.
 *
 * Incremental adoption: --write-baseline records the current
 * diagnostics as content-addressed fingerprints; --baseline
 * suppresses exactly those, so new violations still fail while old
 * ones burn down. The repo itself carries no baseline — it is clean
 * modulo justified exemptions — but downstream forks can use one.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace
{

constexpr const char *kCatalogVersion = "7";

// ---------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------

struct RuleInfo
{
    const char *id;
    const char *summary;
};

const RuleInfo kRules[] = {
    {"L001", "include edge violates the src/ layering DAG "
             "(docs/ARCHITECTURE.md)"},
    {"L002", "transport may include network/ only from the "
             "multistage backend files"},
    {"L003", "source directory not registered in the layering DAG "
             "(add it to cenju-lint and docs/ANALYSIS.md)"},
    {"A001", "C allocation (malloc/calloc/realloc/free) is banned; "
             "use pooled or RAII types"},
    {"A002", "std::function in a pool-governed module; use "
             "InlineFunction (src/sim/inline_function.hh)"},
    {"A003", "shared_ptr/make_shared in a pool-governed module; "
             "use pooled, inline, or unique ownership"},
    {"A004", "unordered container in a pool-governed module "
             "without U64MixHash (src/sim/hashing.hh)"},
    {"A005", "naked new/delete in a pool-governed module; use "
             "Pooled<T>, make_unique, or containers"},
    {"A006", "std::deque in a pool-governed module; use Ring "
             "(src/sim/ring.hh)"},
    {"D001", "nondeterministic source (rand/time/random_device/"
             "chrono clocks) in simulation code"},
    {"D002", "pointer-keyed associative container: iteration order "
             "follows allocation addresses"},
    {"D003", "iteration over an unordered container in "
             "digest-order-affecting code"},
    {"X001", "malformed exemption: unknown rule id or missing "
             "justification"},
    {"X002", "stale exemption: suppresses no diagnostic"},
};

bool
knownRule(const std::string &id)
{
    for (const RuleInfo &r : kRules)
        if (id == r.id)
            return true;
    return false;
}

// ---------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------

/**
 * The include-layering DAG over src/ modules. A module may include
 * headers only from itself and the modules listed here. Drivers
 * (tools/, bench/, tests/, examples/) may include anything.
 *
 * Edges mirror docs/ARCHITECTURE.md: sim/directory/memory/exec are
 * leaves; network and the analytical transports implement the seam;
 * protocol+node+msgpass form one layer group (mutual edges within
 * it are sanctioned); reliable is a transport decorator (it sits
 * on the backend side of the seam and may only see the transport
 * surface plus the fault hooks it honors); check and fault are
 * cross-cutting observers;
 * core composes everything; workload drives core. The lone
 * transport -> network edge is file-scoped (L002): only the
 * multistage backend adapter may name the fabric.
 */
const std::map<std::string, std::set<std::string>> kLayerDag = {
    {"sim", {}},
    {"shard", {"sim", "check"}},
    {"directory", {"sim"}},
    {"memory", {"sim"}},
    {"exec", {"sim"}},
    {"network", {"sim", "directory", "transport"}},
    {"transport", {"sim", "directory", "check", "fault",
                   "shard"}},
    {"reliable", {"sim", "transport", "check", "fault"}},
    {"protocol", {"sim", "directory", "memory", "transport", "node"}},
    {"node", {"sim", "memory", "check", "transport", "protocol", "shard"}},
    {"msgpass", {"sim", "transport", "node", "shard"}},
    {"check", {"sim", "memory", "directory", "network", "transport",
               "node", "protocol"}},
    {"core", {"sim", "exec", "memory", "directory", "check",
              "transport", "network", "node", "protocol",
              "msgpass", "shard", "reliable"}},
    {"fault", {"sim", "core", "check", "network", "protocol",
               "transport", "workload", "shard", "reliable",
               "node"}},
    {"workload", {"sim", "exec", "core"}},
};

/** Files allowed to realize the transport -> network edge. */
const std::set<std::string> kSeamFiles = {
    "src/transport/multistage.hh",
    "src/transport/multistage.cc",
};

/** Modules whose hot paths must not allocate (docs/PERF.md). */
const std::set<std::string> kPoolGoverned = {
    "sim", "shard", "network", "transport", "protocol", "node",
    "msgpass", "memory", "directory", "reliable", "core",
};

/** Modules whose behavior feeds the golden digests. */
const std::set<std::string> kDigestAffecting = {
    "sim", "shard", "network", "transport", "protocol", "node",
    "msgpass", "memory", "directory", "core", "check", "fault",
    "workload", "reliable",
};

// ---------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------

struct Diag
{
    std::string file; ///< repo-relative path
    int line = 0;
    std::string rule;
    std::string msg;
    std::string lineText; ///< for baseline fingerprints
};

struct AllowDirective
{
    int line = 0;       ///< line the comment sits on
    int appliesTo = 0;  ///< line it suppresses
    std::string rule;
    bool justified = false;
    bool known = false;
    bool used = false;
};

// ---------------------------------------------------------------
// Small string helpers (no <regex>: keep startup cost trivial)
// ---------------------------------------------------------------

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Find whole-word occurrence of @p word in @p s at/after @p from. */
std::size_t
findWord(const std::string &s, const std::string &word,
         std::size_t from = 0)
{
    for (std::size_t p = s.find(word, from); p != std::string::npos;
         p = s.find(word, p + 1)) {
        bool leftOk = p == 0 || !isIdentChar(s[p - 1]);
        std::size_t end = p + word.size();
        bool rightOk = end >= s.size() || !isIdentChar(s[end]);
        if (leftOk && rightOk)
            return p;
    }
    return std::string::npos;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Last non-space character before @p pos, or '\0'. */
char
prevNonSpace(const std::string &s, std::size_t pos)
{
    while (pos > 0) {
        char c = s[--pos];
        if (c != ' ' && c != '\t')
            return c;
    }
    return '\0';
}

/** True if the identifier ending just before @p pos equals @p id. */
bool
precededByWord(const std::string &s, std::size_t pos,
               const char *id)
{
    std::size_t e = pos;
    while (e > 0 &&
           (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    std::size_t b = e;
    while (b > 0 && isIdentChar(s[b - 1]))
        --b;
    return s.compare(b, e - b, id) == 0 && e > b;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------
// Per-file scanner
// ---------------------------------------------------------------

/** One physical line split into code and comment text. */
struct SplitLine
{
    std::string code;    ///< literals blanked, comments removed
    std::string comment; ///< concatenated comment text
    bool commentOnly = false;
};

/**
 * Split a file into code/comment channels. Tracks block comments
 * across lines; string and char literals are blanked out of the
 * code channel so banned tokens inside them never match. Raw
 * strings are not used in this codebase and are treated as plain
 * literals.
 */
std::vector<SplitLine>
splitLines(const std::vector<std::string> &lines)
{
    std::vector<SplitLine> out(lines.size());
    bool inBlock = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &ln = lines[i];
        std::string code, comment;
        bool sawCode = false;
        for (std::size_t p = 0; p < ln.size();) {
            if (inBlock) {
                std::size_t e = ln.find("*/", p);
                if (e == std::string::npos) {
                    comment += ln.substr(p);
                    p = ln.size();
                } else {
                    comment += ln.substr(p, e - p);
                    p = e + 2;
                    inBlock = false;
                }
                continue;
            }
            char c = ln[p];
            if (c == '/' && p + 1 < ln.size() && ln[p + 1] == '/') {
                comment += ln.substr(p + 2);
                break;
            }
            if (c == '/' && p + 1 < ln.size() && ln[p + 1] == '*') {
                inBlock = true;
                p += 2;
                continue;
            }
            if (c == '"' || c == '\'') {
                char q = c;
                code += q;
                ++p;
                while (p < ln.size()) {
                    if (ln[p] == '\\' && p + 1 < ln.size()) {
                        p += 2;
                        continue;
                    }
                    if (ln[p] == q) {
                        ++p;
                        break;
                    }
                    ++p;
                }
                code += q;
                sawCode = true;
                continue;
            }
            code += c;
            if (c != ' ' && c != '\t')
                sawCode = true;
            ++p;
        }
        out[i].code = std::move(code);
        out[i].comment = std::move(comment);
        out[i].commentOnly = !sawCode && !out[i].comment.empty();
    }
    return out;
}

/**
 * The directive token, assembled so this file's own comments never
 * register as directives. Prose mentioning the tool name does not
 * match: only the exact "<tool>: allow(" spelling is a directive.
 */
const std::string kDirective =
    std::string("cenju-") + "lint: allow(";

/** Parse allow() directives out of the comment channel. */
std::vector<AllowDirective>
parseAllows(const std::vector<SplitLine> &split)
{
    std::vector<AllowDirective> allows;
    for (std::size_t i = 0; i < split.size(); ++i) {
        const std::string &c = split[i].comment;
        std::size_t p = c.find(kDirective);
        if (p == std::string::npos)
            continue;
        AllowDirective a;
        a.line = static_cast<int>(i + 1);
        a.appliesTo = static_cast<int>(i + 1);
        if (split[i].commentOnly) {
            // A standalone comment governs the next code line;
            // wrapped justifications and blank separators between
            // the directive and the code do not break the binding.
            std::size_t j = i + 1;
            while (j < split.size() &&
                   (split[j].commentOnly ||
                    trim(split[j].code).empty()))
                ++j;
            a.appliesTo = static_cast<int>(j + 1);
        }
        std::size_t q = p + kDirective.size() - 6;
        std::size_t r = c.find(')', q);
        if (r == std::string::npos) {
            allows.push_back(a);
            continue;
        }
        a.rule = trim(c.substr(q + 6, r - q - 6));
        a.known = knownRule(a.rule);
        std::string just = c.substr(r + 1);
        std::size_t b = just.find_first_not_of(" \t:-");
        a.justified =
            b != std::string::npos && just.size() - b >= 10;
        allows.push_back(a);
    }
    return allows;
}

/**
 * Collect names declared as unordered containers in @p split (for
 * D003). Handles declarations whose template arguments span lines:
 * angle brackets are matched across the joined code channel.
 */
std::set<std::string>
unorderedDeclNames(const std::vector<SplitLine> &split)
{
    std::string joined;
    for (const SplitLine &l : split) {
        joined += l.code;
        joined += '\n';
    }
    std::set<std::string> names;
    for (const char *kw : {"unordered_map", "unordered_set"}) {
        for (std::size_t p = findWord(joined, kw);
             p != std::string::npos;
             p = findWord(joined, kw, p + 1)) {
            std::size_t lt = joined.find('<', p);
            if (lt == std::string::npos)
                continue;
            int depth = 0;
            std::size_t q = lt;
            for (; q < joined.size(); ++q) {
                if (joined[q] == '<')
                    ++depth;
                else if (joined[q] == '>' && --depth == 0)
                    break;
            }
            if (q >= joined.size())
                continue;
            // Next identifier after the closing '>' is the declared
            // name (skips nothing for using-aliases/params, which
            // simply yield no identifier before a ';' or ',').
            std::size_t r = q + 1;
            while (r < joined.size() &&
                   (joined[r] == ' ' || joined[r] == '\t' ||
                    joined[r] == '\n' || joined[r] == '&' ||
                    joined[r] == '*'))
                ++r;
            std::size_t b = r;
            while (r < joined.size() && isIdentChar(joined[r]))
                ++r;
            if (r > b)
                names.insert(joined.substr(b, r - b));
        }
    }
    return names;
}

/** Extract the template argument text of a container at @p kwPos. */
std::string
templateArgsAt(const std::vector<SplitLine> &split, std::size_t row,
               std::size_t kwPos)
{
    std::string acc;
    int depth = 0;
    bool started = false;
    for (std::size_t i = row; i < split.size() && i < row + 8; ++i) {
        const std::string &code = split[i].code;
        std::size_t p = i == row ? kwPos : 0;
        for (; p < code.size(); ++p) {
            if (code[p] == '<') {
                ++depth;
                started = true;
            } else if (code[p] == '>') {
                if (--depth == 0)
                    return acc;
            }
            if (started)
                acc += code[p];
        }
        acc += ' ';
    }
    return acc;
}

struct FileReport
{
    std::vector<Diag> diags;
    std::vector<AllowDirective> allows;
};

struct ScanContext
{
    std::string relPath; ///< repo-relative, '/'-separated
    std::string module;  ///< src module name, or "" for drivers
    bool isDriver = false;
};

void
addDiag(FileReport &rep, const ScanContext &ctx, int line,
        const char *rule, const std::string &msg,
        const std::string &lineText)
{
    rep.diags.push_back({ctx.relPath, line, rule, msg, lineText});
}

void
scanIncludes(FileReport &rep, const ScanContext &ctx,
             const std::vector<std::string> &lines,
             const std::vector<SplitLine> &split)
{
    if (ctx.isDriver)
        return;
    auto dag = kLayerDag.find(ctx.module);
    if (dag == kLayerDag.end()) {
        addDiag(rep, ctx, 1, "L003",
                "directory src/" + ctx.module +
                    " is not registered in the layering DAG",
                lines.empty() ? "" : lines[0]);
        return;
    }
    for (std::size_t i = 0; i < split.size(); ++i) {
        // The code channel blanks string literals, so detect the
        // directive there but read the path from the raw line.
        if (split[i].code.find("#include") == std::string::npos)
            continue;
        const std::string &raw = lines[i];
        std::size_t h = raw.find("#include \"");
        if (h == std::string::npos)
            continue;
        std::size_t b = h + 10;
        std::size_t e = raw.find('"', b);
        if (e == std::string::npos)
            continue;
        std::string inc = raw.substr(b, e - b);
        std::size_t slash = inc.find('/');
        if (slash == std::string::npos)
            continue; // module-local include
        std::string target = inc.substr(0, slash);
        if (kLayerDag.find(target) == kLayerDag.end())
            continue; // not a src module (e.g. kernels/)
        if (target == ctx.module)
            continue;
        int ln = static_cast<int>(i + 1);
        if (ctx.module == "transport" && target == "network") {
            if (!kSeamFiles.count(ctx.relPath))
                addDiag(rep, ctx, ln, "L002",
                        "only the multistage backend may include "
                        "network/ from src/transport",
                        lines[i]);
            continue;
        }
        if (!dag->second.count(target))
            addDiag(rep, ctx, ln, "L001",
                    "src/" + ctx.module +
                        " may not include \"" + inc +
                        "\" (edge " + ctx.module + " -> " + target +
                        " is not in the layering DAG)",
                    lines[i]);
    }
}

void
scanAllocRules(FileReport &rep, const ScanContext &ctx,
               const std::vector<std::string> &lines,
               const std::vector<SplitLine> &split)
{
    bool pool = !ctx.isDriver && kPoolGoverned.count(ctx.module);
    for (std::size_t i = 0; i < split.size(); ++i) {
        const std::string &code = split[i].code;
        int ln = static_cast<int>(i + 1);
        if (trim(code).rfind('#', 0) == 0)
            continue; // preprocessor (e.g. #include <new>)

        // A001: C allocation, everywhere (drivers included).
        for (const char *fn :
             {"malloc", "calloc", "realloc", "free"}) {
            std::size_t p = findWord(code, fn);
            if (p != std::string::npos &&
                code.find('(', p) == p + std::strlen(fn) &&
                prevNonSpace(code, p) != '.' &&
                !precededByWord(code, p, "operator"))
                addDiag(rep, ctx, ln, "A001",
                        std::string(fn) + "() is banned; use "
                        "pooled or RAII allocation",
                        lines[i]);
        }
        if (!pool)
            continue;

        // A002: std::function where InlineFunction is mandated.
        if (findWord(code, "function") != std::string::npos &&
            code.find("std::function") != std::string::npos)
            addDiag(rep, ctx, ln, "A002",
                    "std::function heap-allocates large captures; "
                    "use InlineFunction on pool-governed paths",
                    lines[i]);

        // A003: shared ownership on hot paths.
        for (const char *id : {"shared_ptr", "make_shared"}) {
            if (findWord(code, id) != std::string::npos) {
                addDiag(rep, ctx, ln, "A003",
                        std::string(id) +
                            " in a pool-governed module; prefer "
                            "pooled/unique ownership",
                        lines[i]);
                break;
            }
        }

        // A004: unordered containers must hash with U64MixHash.
        for (const char *kw : {"unordered_map", "unordered_set"}) {
            std::size_t p = findWord(code, kw);
            if (p == std::string::npos)
                continue;
            if (prevNonSpace(code, p) == '<' ||
                code.find('<', p) != p + std::strlen(kw))
                continue; // mention, not a declaration
            std::string args = templateArgsAt(split, i, p);
            if (args.find("U64MixHash") == std::string::npos)
                addDiag(rep, ctx, ln, "A004",
                        std::string(kw) +
                            " without U64MixHash: std::hash is the "
                            "identity on integers and clusters hot "
                            "tables (docs/PERF.md)",
                        lines[i]);
        }

        // A005: naked new / delete (every occurrence on the line:
        // a placement ::new can hide a boxing `new` to its right).
        for (std::size_t p = findWord(code, "new");
             p != std::string::npos;
             p = findWord(code, "new", p + 1)) {
            char before = prevNonSpace(code, p);
            bool placement = before == ':'; // ::new
            bool opDecl = precededByWord(code, p, "operator");
            if (!placement && !opDecl) {
                addDiag(rep, ctx, ln, "A005",
                        "naked new in a pool-governed module; use "
                        "Pooled<T>/make_unique/containers",
                        lines[i]);
                break;
            }
        }
        for (std::size_t p = findWord(code, "delete");
             p != std::string::npos;
             p = findWord(code, "delete", p + 1)) {
            char before = prevNonSpace(code, p);
            bool deleted = before == '=';  // = delete
            bool opDecl = precededByWord(code, p, "operator") ||
                          before == ':'; // ::operator delete
            if (!deleted && !opDecl) {
                addDiag(rep, ctx, ln, "A005",
                        "naked delete in a pool-governed module; "
                        "let pooled/unique owners release storage",
                        lines[i]);
                break;
            }
        }

        // A006: std::deque allocates a node and a map as soon as it
        // is constructed; the simulated path has one FIFO, Ring.
        if (findWord(code, "deque") != std::string::npos &&
            code.find("std::deque") != std::string::npos)
            addDiag(rep, ctx, ln, "A006",
                    "std::deque allocates on construction; use Ring "
                    "(src/sim/ring.hh), which allocates on first push",
                    lines[i]);
    }
}

void
scanDeterminismRules(FileReport &rep, const ScanContext &ctx,
                     const std::vector<std::string> &lines,
                     const std::vector<SplitLine> &split,
                     const std::set<std::string> &unorderedNames)
{
    if (ctx.isDriver || !kDigestAffecting.count(ctx.module))
        return;
    for (std::size_t i = 0; i < split.size(); ++i) {
        const std::string &code = split[i].code;
        int ln = static_cast<int>(i + 1);

        // D001: nondeterminism sources. Function-like tokens must
        // be calls; type-like tokens match as identifiers.
        for (const char *fn :
             {"rand", "srand", "time", "clock", "gettimeofday"}) {
            std::size_t p = findWord(code, fn);
            if (p != std::string::npos &&
                code.find('(', p) == p + std::strlen(fn) &&
                prevNonSpace(code, p) != '.')
                addDiag(rep, ctx, ln, "D001",
                        std::string(fn) + "() breaks bit-identical "
                        "replay; use sim/rng.hh streams",
                        lines[i]);
        }
        for (const char *ty :
             {"random_device", "mt19937", "steady_clock",
              "system_clock", "high_resolution_clock"}) {
            if (findWord(code, ty) != std::string::npos)
                addDiag(rep, ctx, ln, "D001",
                        std::string(ty) + " is nondeterministic or "
                        "stdlib-dependent; use sim/rng.hh",
                        lines[i]);
        }
        for (const char *hdr :
             {"#include <random>", "#include <chrono>",
              "#include <ctime>"}) {
            if (code.find(hdr) != std::string::npos)
                addDiag(rep, ctx, ln, "D001",
                        std::string(hdr) + " in simulation code; "
                        "wall-clock and stdlib RNG are banned here",
                        lines[i]);
        }

        // D002: pointer-keyed associative containers.
        for (const char *kw : {"map", "set", "unordered_map",
                               "unordered_set"}) {
            std::size_t p = findWord(code, kw);
            if (p == std::string::npos)
                continue;
            if (code.find('<', p) != p + std::strlen(kw))
                continue;
            std::string args = templateArgsAt(split, i, p);
            // First template argument only.
            int depth = 0;
            std::size_t cut = args.size();
            for (std::size_t q = 0; q < args.size(); ++q) {
                if (args[q] == '<')
                    ++depth;
                else if (args[q] == '>')
                    --depth;
                else if (args[q] == ',' && depth <= 1) {
                    cut = q;
                    break;
                }
            }
            std::string first = trim(args.substr(1, cut - 1));
            if (!first.empty() && first.back() == '*')
                addDiag(rep, ctx, ln, "D002",
                        "pointer-keyed " + std::string(kw) +
                            ": ordering/iteration follows heap "
                            "addresses across runs",
                        lines[i]);
        }

        // D003: range-for over an unordered container.
        std::size_t f = findWord(code, "for");
        if (f != std::string::npos) {
            std::size_t colon = code.find(" : ", f);
            if (colon != std::string::npos) {
                std::string range =
                    trim(code.substr(colon + 3));
                while (!range.empty() &&
                       (range.back() == ')' || range.back() == '{' ||
                        range.back() == ' '))
                    range.pop_back();
                if (range.rfind("this->", 0) == 0)
                    range = range.substr(6);
                if (!range.empty() && unorderedNames.count(range))
                    addDiag(rep, ctx, ln, "D003",
                            "iterating unordered container '" +
                                range + "' — order is hash-layout "
                                "dependent and can leak into "
                                "digests",
                            lines[i]);
            }
        }
    }
}

// ---------------------------------------------------------------
// Driver
// ---------------------------------------------------------------

std::vector<std::string>
readLines(const fs::path &p)
{
    std::ifstream in(p);
    std::vector<std::string> lines;
    std::string ln;
    while (std::getline(in, ln)) {
        if (!ln.empty() && ln.back() == '\r')
            ln.pop_back();
        lines.push_back(ln);
    }
    return lines;
}

std::string
relativeTo(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    std::string s = (ec || rel.empty() ? file : rel)
                        .generic_string();
    while (s.rfind("../", 0) == 0)
        s = s.substr(3);
    return s;
}

ScanContext
classify(const std::string &relPath)
{
    ScanContext ctx;
    ctx.relPath = relPath;
    if (relPath.rfind("src/", 0) == 0) {
        std::size_t e = relPath.find('/', 4);
        ctx.module = relPath.substr(
            4, e == std::string::npos ? std::string::npos : e - 4);
        ctx.isDriver = false;
    } else {
        ctx.isDriver = true;
    }
    return ctx;
}

bool
lintableFile(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".h" || ext == ".hpp";
}

/** Scan one file; sibling header/source feeds the D003 name set. */
FileReport
scanFile(const fs::path &file, const fs::path &root)
{
    FileReport rep;
    ScanContext ctx = classify(relativeTo(file, root));
    std::vector<std::string> lines = readLines(file);
    std::vector<SplitLine> split = splitLines(lines);
    rep.allows = parseAllows(split);

    std::set<std::string> names = unorderedDeclNames(split);
    for (const char *sibExt : {".hh", ".cc"}) {
        fs::path sib = file;
        sib.replace_extension(sibExt);
        if (sib != file && fs::exists(sib)) {
            auto sibNames =
                unorderedDeclNames(splitLines(readLines(sib)));
            names.insert(sibNames.begin(), sibNames.end());
        }
    }

    scanIncludes(rep, ctx, lines, split);
    scanAllocRules(rep, ctx, lines, split);
    scanDeterminismRules(rep, ctx, lines, split, names);
    return rep;
}

/** Apply allow() directives; malformed/stale ones become X-diags. */
std::vector<Diag>
applyAllows(FileReport &rep, const std::string &relPath,
            const std::vector<std::string> &lines)
{
    std::vector<Diag> out;
    for (Diag &d : rep.diags) {
        bool suppressed = false;
        for (AllowDirective &a : rep.allows) {
            if (a.known && a.justified && a.rule == d.rule &&
                a.appliesTo == d.line) {
                a.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            out.push_back(std::move(d));
    }
    for (const AllowDirective &a : rep.allows) {
        std::string text =
            a.line <= static_cast<int>(lines.size())
                ? lines[a.line - 1]
                : "";
        if (!a.known || !a.justified) {
            out.push_back(
                {relPath, a.line, "X001",
                 a.rule.empty()
                     ? "malformed directive: expected allow(<rule>)"
                     : (!a.known
                            ? "unknown rule '" + a.rule + "'"
                            : "exemption for " + a.rule +
                                  " carries no justification "
                                  "(state why the rule does not "
                                  "apply)"),
                 text});
        } else if (!a.used) {
            out.push_back({relPath, a.line, "X002",
                           "exemption for " + a.rule +
                               " suppresses nothing; remove it",
                           text});
        }
    }
    return out;
}

std::string
fingerprint(const Diag &d)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(
                      d.rule + "|" + d.file + "|" +
                      trim(d.lineText))));
    return buf;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cenju-lint [options] [paths...]\n"
        "  paths                files or directories (default:\n"
        "                       src tools bench under --repo-root)\n"
        "  --repo-root DIR      repository root for relative\n"
        "                       paths and scope rules (default .)\n"
        "  --compdb FILE        take the file list from a\n"
        "                       compile_commands.json\n"
        "  --baseline FILE      suppress fingerprints in FILE\n"
        "  --write-baseline FILE  record current diagnostics\n"
        "  --list-rules         print the rule catalog\n"
        "  --version            print the catalog version\n"
        "exit: 0 clean, 1 diagnostics, 2 usage/io error\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    std::string compdb, baselineFile, writeBaselineFile;
    std::vector<fs::path> paths;
    bool listRules = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--repo-root") {
            const char *v = val();
            if (!v)
                return usage();
            root = v;
        } else if (a == "--compdb") {
            const char *v = val();
            if (!v)
                return usage();
            compdb = v;
        } else if (a == "--baseline") {
            const char *v = val();
            if (!v)
                return usage();
            baselineFile = v;
        } else if (a == "--write-baseline") {
            const char *v = val();
            if (!v)
                return usage();
            writeBaselineFile = v;
        } else if (a == "--list-rules") {
            listRules = true;
        } else if (a == "--version") {
            std::printf("cenju-lint rule catalog v%s\n",
                        kCatalogVersion);
            return 0;
        } else if (a.rfind("--", 0) == 0) {
            return usage();
        } else {
            paths.emplace_back(a);
        }
    }

    if (listRules) {
        std::printf("cenju-lint rule catalog v%s "
                    "(docs/ANALYSIS.md)\n",
                    kCatalogVersion);
        for (const RuleInfo &r : kRules)
            std::printf("  %s  %s\n", r.id, r.summary);
        return 0;
    }

    // Assemble the file list.
    std::vector<fs::path> files;
    auto addTree = [&](const fs::path &p) {
        if (fs::is_regular_file(p)) {
            if (lintableFile(p))
                files.push_back(p);
            return;
        }
        if (!fs::is_directory(p))
            return;
        for (auto it = fs::recursive_directory_iterator(p);
             it != fs::recursive_directory_iterator(); ++it) {
            std::string name = it->path().filename().string();
            if (it->is_directory() &&
                (name.rfind("build", 0) == 0 || name[0] == '.')) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintableFile(it->path()))
                files.push_back(it->path());
        }
    };

    if (!compdb.empty()) {
        std::ifstream in(compdb);
        if (!in) {
            std::fprintf(stderr, "cenju-lint: cannot open %s\n",
                         compdb.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        std::string all = ss.str();
        const std::string key = "\"file\"";
        for (std::size_t p = all.find(key); p != std::string::npos;
             p = all.find(key, p + 1)) {
            std::size_t b = all.find('"', p + key.size() + 1);
            if (b == std::string::npos)
                continue;
            std::size_t e = all.find('"', b + 1);
            if (e == std::string::npos)
                continue;
            fs::path f = all.substr(b + 1, e - b - 1);
            if (lintableFile(f) && fs::exists(f))
                files.push_back(f);
        }
    }
    if (paths.empty() && compdb.empty())
        for (const char *d : {"src", "tools", "bench"})
            addTree(root / d);
    for (const fs::path &p : paths)
        addTree(p);

    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());
    if (files.empty()) {
        std::fprintf(stderr, "cenju-lint: no input files\n");
        return 2;
    }

    std::set<std::string> baseline;
    if (!baselineFile.empty()) {
        std::ifstream in(baselineFile);
        if (!in) {
            std::fprintf(stderr, "cenju-lint: cannot open %s\n",
                         baselineFile.c_str());
            return 2;
        }
        std::string fp;
        while (in >> fp)
            baseline.insert(fp);
    }

    std::vector<Diag> all;
    for (const fs::path &f : files) {
        FileReport rep = scanFile(f, root);
        std::vector<std::string> lines = readLines(f);
        std::vector<Diag> diags =
            applyAllows(rep, relativeTo(f, root), lines);
        for (Diag &d : diags)
            if (!baseline.count(fingerprint(d)))
                all.push_back(std::move(d));
    }

    std::sort(all.begin(), all.end(),
              [](const Diag &a, const Diag &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    if (!writeBaselineFile.empty()) {
        std::ofstream out(writeBaselineFile);
        for (const Diag &d : all)
            out << fingerprint(d) << " # " << d.file << ":"
                << d.line << " " << d.rule << "\n";
        std::fprintf(stderr,
                     "cenju-lint: wrote %zu fingerprints to %s\n",
                     all.size(), writeBaselineFile.c_str());
        return 0;
    }

    for (const Diag &d : all)
        std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.msg.c_str());
    std::fprintf(stderr,
                 "cenju-lint: %zu file(s), %zu diagnostic(s), "
                 "catalog v%s\n",
                 files.size(), all.size(), kCatalogVersion);
    return all.empty() ? 0 : 1;
}
