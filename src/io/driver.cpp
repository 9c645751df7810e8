#include "io/driver.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>

#include "common/buildinfo.hpp"
#include "common/trace.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

InputFormat
detectFormat(const std::string &path)
{
    std::string ext = fs::path(path).extension().string();
    for (char &c : ext)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (ext == ".fcidump")
        return InputFormat::Fcidump;
    if (ext == ".ops")
        return InputFormat::Ops;
    // Sniff: FCIDUMP files open with an &FCI namelist.
    std::ifstream in(path);
    if (!in)
        throw ParseError("cannot open file: " + path);
    std::string line;
    while (std::getline(in, line)) {
        size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        return line[b] == '&' ? InputFormat::Fcidump : InputFormat::Ops;
    }
    return InputFormat::Ops;
}

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

LoadedProblem
loadProblem(const std::string &path, InputFormat format,
            const ParseLimits &limits)
{
    // Only regular files are read: opening a FIFO blocks until a writer
    // appears, and /dev/zero or a directory never parses. A missing path
    // falls through to the open below and its "cannot open" error.
    std::error_code type_ec;
    const fs::file_status status = fs::status(path, type_ec);
    if (fs::exists(status) && !fs::is_regular_file(status))
        throw ParseError(path + ": not a regular file");
    // Size guard before a single byte is parsed: a hostile or
    // mistargeted path (a core dump, a giant log) must be rejected by
    // stat, not by the allocator.
    if (limits.maxFileBytes != 0) {
        std::error_code ec;
        const uint64_t size = fs::file_size(path, ec);
        if (!ec && size > limits.maxFileBytes)
            throw ParseError(path + ": file size " +
                             std::to_string(size) +
                             " exceeds the input cap (" +
                             std::to_string(limits.maxFileBytes) +
                             " bytes)");
    }
    if (format == InputFormat::Auto)
        format = detectFormat(path);

    LoadedProblem problem;
    problem.stem = fs::path(path).stem().string();

    StreamingMajoranaAccumulator acc;
    try {
        trace::Span parse_span("driver", "parse");
        metrics::ScopedTimer parse_timer("parse.seconds");
        if (format == InputFormat::Ops) {
            problem.format = "ops";
            std::ifstream in(path);
            if (!in)
                throw ParseError("cannot open file: " + path);
            FermionTextInfo info =
                streamFermionText(in, [&](FermionTerm &&term) {
                    acc.add(term);
                    return true;
                }, limits);
            acc.ensureModes(info.numModes);
            problem.fermionTerms = info.numTerms;
        } else {
            problem.format = "fcidump";
            FermionHamiltonian hf = loadFcidumpHamiltonian(path, limits);
            for (const FermionTerm &term : hf.terms())
                acc.add(term);
            acc.ensureModes(hf.numModes());
            problem.fermionTerms = hf.size();
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
