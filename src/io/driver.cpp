#include "io/driver.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>

#include <cctype>
#include <filesystem>
#include <istream>

#include "chem/transform.hpp"
#include "common/buildinfo.hpp"
#include "common/trace.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

std::optional<InputFormat>
parseInputFormat(const std::string &name)
{
    if (name == "auto")
        return InputFormat::Auto;
    if (name == "ops")
        return InputFormat::Ops;
    if (name == "fcidump")
        return InputFormat::Fcidump;
    return std::nullopt;
}

std::optional<InputFormat>
formatFromExtension(const fs::path &path)
{
    std::string ext = path.extension().string();
    for (char &c : ext)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (ext == ".ops")
        return InputFormat::Ops;
    if (ext == ".fcidump")
        return InputFormat::Fcidump;
    return std::nullopt;
}

namespace {

/** Auto's content fallback: the first non-blank character of an
    FCIDUMP file opens its &FCI namelist. Rewinds @p in. */
InputFormat
sniffFormat(std::istream &in)
{
    InputFormat format = InputFormat::Ops;
    char c;
    while (in.get(c)) {
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n')
            continue;
        if (c == '&')
            format = InputFormat::Fcidump;
        break;
    }
    in.clear();
    in.seekg(0);
    return format;
}

} // namespace

LoadedProblem
loadProblem(const std::string &path, InputFormat format,
            const ParseLimits &limits)
{
    // One open, and every later question is asked of that descriptor:
    // a path swapped for a FIFO after a stat could otherwise still
    // block the reader. O_NONBLOCK keeps the open of a writerless FIFO
    // from blocking; fstat then rejects it (and directories, devices).
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0)
        throw ParseError("cannot open file: " + path);
    __gnu_cxx::stdio_filebuf<char> file(fd, std::ios::in);
    if (!file.is_open()) {
        ::close(fd);
        throw ParseError("cannot open file: " + path);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
        throw ParseError(path + ": not a regular file");
    // Size guard before a single byte is parsed: a hostile or
    // mistargeted path (a core dump, a giant log) must be rejected by
    // stat, not by the allocator.
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    if (limits.maxFileBytes != 0 && size > limits.maxFileBytes)
        throw ParseError(path + ": file size " + std::to_string(size) +
                         " exceeds the input cap (" +
                         std::to_string(limits.maxFileBytes) + " bytes)");
    std::istream in(&file);
    if (format == InputFormat::Auto) {
        const std::optional<InputFormat> by_ext = formatFromExtension(path);
        format = by_ext ? *by_ext : sniffFormat(in);
    }

    LoadedProblem problem;
    problem.stem = fs::path(path).stem().string();

    StreamingMajoranaAccumulator acc;
    try {
        trace::Span parse_span("driver", "parse");
        metrics::ScopedTimer parse_timer("parse.seconds");
        if (format == InputFormat::Ops) {
            problem.format = "ops";
            FermionTextInfo info =
                streamFermionText(in, [&](FermionTerm &&term) {
                    acc.add(term);
                    return true;
                }, limits);
            acc.ensureModes(info.numModes);
            problem.fermionTerms = info.numTerms;
        } else {
            problem.format = "fcidump";
            problem.fermionTerms =
                addIntegralMonomials(parseFcidump(in, limits), acc);
            metrics::add("parse.fcidump_files");
            metrics::add("parse.fcidump_terms", problem.fermionTerms);
        }
    } catch (const std::invalid_argument &e) {
        // Data-shape violations from the Majorana expansion (e.g. a term
        // with > 30 ladder operators) are input errors, not bugs.
        throw ParseError(path + ": " + e.what());
    }
    {
        trace::Span preprocess_span("driver", "preprocess");
        metrics::ScopedTimer preprocess_timer("preprocess.seconds");
        problem.poly = acc.finish();
        problem.numModes = problem.poly.numModes();
        problem.contentHash = majoranaContentHash(problem.poly);
    }
    // Only on success: a failed parse contributes nothing, keeping the
    // counters invariant under hostile inputs and fault injection.
    metrics::add("parse.files");
    metrics::add("parse.fermion_terms", problem.fermionTerms);
    metrics::add("preprocess.majorana_monomials", problem.poly.size());
    return problem;
}

JsonValue
buildInfoDocument()
{
    JsonValue doc = JsonValue::object();
    doc.add("git_sha", buildinfo::kGitSha);
    doc.add("compiler", buildinfo::kCompiler);
    doc.add("build_type", buildinfo::kBuildType);
    doc.add("flags", buildinfo::kFlags);
    return doc;
}

JsonValue
metricsSectionsDocument(const metrics::Snapshot &snap)
{
    JsonValue det = JsonValue::object();
    for (const auto &[name, count] : snap.counters)
        det.add(name, count);
    JsonValue vol = JsonValue::object();
    for (const auto &[name, stat] : snap.timings) {
        JsonValue rec = JsonValue::object();
        rec.add("count", stat.count);
        rec.add("total_seconds", stat.total);
        rec.add("min_seconds", stat.min);
        rec.add("max_seconds", stat.max);
        vol.add(name, std::move(rec));
    }
    JsonValue doc = JsonValue::object();
    doc.add("deterministic", std::move(det));
    doc.add("volatile", std::move(vol));
    return doc;
}

JsonValue
workloadCountersDocument(const metrics::Snapshot &snap)
{
    JsonValue det = JsonValue::object();
    for (const auto &[name, count] : snap.counters)
        if (name.rfind("parse.", 0) == 0 ||
            name.rfind("preprocess.", 0) == 0)
            det.add(name, count);
    JsonValue doc = JsonValue::object();
    doc.add("deterministic", std::move(det));
    return doc;
}

void
ensureOutDir(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        throw ParseError("cannot create output directory " + dir + ": " +
                         ec.message());
}

} // namespace hatt::io
