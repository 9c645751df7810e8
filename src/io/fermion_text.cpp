#include "io/fermion_text.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <locale>
#include <new>
#include <sstream>
#include <system_error>

#include "common/fault.hpp"
#include "common/metrics.hpp"

namespace hatt::io {

namespace {

/** Practical ceiling on mode indices; catches corrupt/hostile files. */
constexpr uint32_t kMaxMode = 1u << 24;

[[noreturn]] void
fail(size_t line, const std::string &msg)
{
    throw ParseError(".ops parse error (line " + std::to_string(line) +
                     "): " + msg);
}

/** Strip a trailing comment and surrounding whitespace. */
std::string
stripLine(const std::string &raw)
{
    std::string s = raw;
    size_t hash = s.find('#');
    if (hash != std::string::npos)
        s.erase(hash);
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/**
 * Parse a coefficient prefix: plain real ("-1.5", "2e-3") or OpenFermion
 * complex ("(1.5+0.25j)", "(-0.5-1j)"). @p pos is advanced past it.
 */
cplx
parseCoefficient(const std::string &s, size_t &pos, size_t line)
{
    auto parseReal = [&](size_t &p) -> double {
        // Locale-independent: strtod honors LC_NUMERIC, so "1.5" would
        // parse as 1 under a comma-decimal locale. parseDoubleToken
        // keeps strtod's accepted syntax ('+' prefixes) and range
        // semantics (underflow -> 0.0 accepted; overflow -> inf,
        // rejected just below).
        double v = 0.0;
        const char *end =
            parseDoubleToken(s.data() + p, s.data() + s.size(), v);
        if (end == s.data() + p)
            fail(line, "expected a numeric coefficient");
        if (!std::isfinite(v))
            fail(line, "coefficient must be finite");
        p = static_cast<size_t>(end - s.data());
        return v;
    };

    if (pos < s.size() && s[pos] == '(') {
        ++pos;
        double re = parseReal(pos);
        if (pos >= s.size() || (s[pos] != '+' && s[pos] != '-'))
            fail(line, "expected '+'/'-' in complex coefficient");
        double im = parseReal(pos); // sign consumed by from_chars ('+'
                                    // skipped explicitly above)
        if (pos >= s.size() || s[pos] != 'j')
            fail(line, "expected 'j' in complex coefficient");
        ++pos;
        if (pos >= s.size() || s[pos] != ')')
            fail(line, "expected ')' closing complex coefficient");
        ++pos;
        return {re, im};
    }
    double re = parseReal(pos);
    if (pos < s.size() && s[pos] == 'j')
        fail(line, "imaginary coefficient must use the (re+imj) form");
    return {re, 0.0};
}

/** Parse the bracketed operator list "[0^ 1 2^]". */
std::vector<FermionOp>
parseOps(const std::string &s, size_t &pos, size_t line)
{
    if (pos >= s.size() || s[pos] != '[')
        fail(line, "expected '[' starting the operator list");
    ++pos;
    std::vector<FermionOp> ops;
    while (true) {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t'))
            ++pos;
        if (pos >= s.size())
            fail(line, "unterminated operator list (missing ']')");
        if (s[pos] == ']') {
            ++pos;
            return ops;
        }
        if (!std::isdigit(static_cast<unsigned char>(s[pos])))
            fail(line, std::string("invalid character '") + s[pos] +
                           "' in operator list");
        uint64_t mode = 0;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos]))) {
            mode = mode * 10 + static_cast<uint64_t>(s[pos] - '0');
            if (mode > kMaxMode)
                fail(line, "mode index too large");
            ++pos;
        }
        bool creation = false;
        if (pos < s.size() && s[pos] == '^') {
            creation = true;
            ++pos;
        }
        if (pos < s.size() && s[pos] != ' ' && s[pos] != '\t' &&
            s[pos] != ']')
            fail(line, "operators must be separated by spaces");
        ops.push_back({static_cast<uint32_t>(mode), creation});
    }
}

} // namespace

FermionTextInfo
streamFermionText(std::istream &in, const FermionTermCallback &callback,
                  const ParseLimits &limits)
{
    FermionTextInfo info;
    uint32_t max_mode_seen = 0;
    bool any_op = false;
    std::string raw;
    size_t line_no = 0;
    const uint32_t mode_cap =
        limits.maxModes != 0 ? std::min(limits.maxModes, kMaxMode)
                             : kMaxMode;

    while (std::getline(in, raw)) {
        ++line_no;
        if (limits.maxLineBytes != 0 && raw.size() > limits.maxLineBytes)
            fail(line_no, "line exceeds " +
                              std::to_string(limits.maxLineBytes) +
                              " bytes");
        std::string s = stripLine(raw);
        if (s.empty())
            continue;

        if (s.rfind("modes", 0) == 0 &&
            (s.size() == 5 || s[5] == ' ' || s[5] == '\t')) {
            if (info.declaredModes)
                fail(line_no, "duplicate 'modes' header");
            if (info.numTerms > 0)
                fail(line_no, "'modes' header must precede all terms");
            std::istringstream hs(s.substr(5));
            long long n = -1;
            hs >> n;
            std::string rest;
            hs >> rest;
            if (n <= 0 || n > static_cast<long long>(kMaxMode) ||
                !rest.empty())
                fail(line_no, "invalid 'modes' header");
            if (n > static_cast<long long>(mode_cap))
                fail(line_no, "declared modes " + std::to_string(n) +
                                  " exceed the mode cap (" +
                                  std::to_string(mode_cap) + ")");
            info.numModes = static_cast<uint32_t>(n);
            info.declaredModes = true;
            continue;
        }

        size_t pos = 0;
        cplx coeff = parseCoefficient(s, pos, line_no);
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t'))
            ++pos;
        std::vector<FermionOp> ops = parseOps(s, pos, line_no);
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t'))
            ++pos;
        if (pos < s.size() && s[pos] == '+' && pos + 1 == s.size())
            ++pos; // OpenFermion str() keeps a trailing '+' per term
        if (pos != s.size())
            fail(line_no, "unexpected characters after term");

        for (const FermionOp &op : ops) {
            if (info.declaredModes && op.mode >= info.numModes)
                fail(line_no, "mode index " + std::to_string(op.mode) +
                                  " out of range (modes = " +
                                  std::to_string(info.numModes) + ")");
            if (op.mode >= mode_cap)
                fail(line_no, "mode index " + std::to_string(op.mode) +
                                  " exceeds the mode cap (" +
                                  std::to_string(mode_cap) + ")");
            max_mode_seen = std::max(max_mode_seen, op.mode);
            any_op = true;
        }

        ++info.numTerms;
        if (limits.maxTerms != 0 && info.numTerms > limits.maxTerms)
            fail(line_no, "term count exceeds the term cap (" +
                              std::to_string(limits.maxTerms) + ")");
        // Injection point: allocation pressure while materializing a
        // term (throw models bad_alloc, fail a clean parser diagnostic).
        switch (fault::at("parse.alloc")) {
          case fault::Action::Throw: throw std::bad_alloc();
          case fault::Action::Fail:
            fail(line_no, "fault injected: parse.alloc");
          case fault::Action::None: break;
        }
        if (!callback(FermionTerm(coeff, std::move(ops))))
            break;
    }

    if (!info.declaredModes)
        info.numModes = any_op ? max_mode_seen + 1 : 0;
    // Counted only on successful completion, so a parse failure
    // contributes nothing (keeps the counters invariant under fault
    // injection and hostile inputs).
    metrics::add("parse.ops_streams");
    metrics::add("parse.ops_terms", info.numTerms);
    return info;
}

FermionHamiltonian
parseFermionText(std::istream &in)
{
    std::vector<FermionTerm> terms;
    FermionTextInfo info = streamFermionText(in, [&](FermionTerm &&t) {
        terms.push_back(std::move(t));
        return true;
    });
    FermionHamiltonian hf(info.numModes);
    for (auto &t : terms)
        hf.add(t);
    return hf;
}

FermionHamiltonian
loadFermionTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ParseError("cannot open file: " + path);
    return parseFermionText(in);
}

void
writeFermionText(std::ostream &out, const FermionHamiltonian &hf,
                 const std::string &comment)
{
    // The .ops format is C-locale text: a grouping locale would emit
    // "modes 32,768".
    ClassicLocaleScope locale_scope(out);
    if (!comment.empty())
        out << "# " << comment << "\n";
    out << "modes " << hf.numModes() << "\n";
    for (const FermionTerm &t : hf.terms()) {
        if (t.coeff.imag() != 0.0)
            out << "(" << jsonNumberToString(t.coeff.real())
                << (t.coeff.imag() < 0 ? "" : "+")
                << jsonNumberToString(t.coeff.imag()) << "j)";
        else
            out << jsonNumberToString(t.coeff.real());
        out << " [";
        for (size_t i = 0; i < t.ops.size(); ++i) {
            if (i)
                out << " ";
            out << t.ops[i].mode << (t.ops[i].creation ? "^" : "");
        }
        out << "]\n";
    }
}

} // namespace hatt::io
