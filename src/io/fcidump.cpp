#include "io/fcidump.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <locale>
#include <sstream>
#include <system_error>

#include "chem/transform.hpp"
#include "io/json.hpp"

namespace hatt::io {

namespace {

[[noreturn]] void
fail(size_t line, const std::string &msg)
{
    throw ParseError("FCIDUMP parse error (line " + std::to_string(line) +
                     "): " + msg);
}

/** Case-insensitive uppercase copy (namelist keys are case-insensitive). */
std::string
upper(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

/**
 * Read the &FCI ... &END (or ... /) namelist header, extracting NORB and
 * NELEC. Consumes header lines from @p in; @p line_no tracks position.
 */
void
parseHeader(std::istream &in, size_t &line_no, long &norb, long &nelec)
{
    std::string header;
    std::string raw;
    bool started = false, ended = false;
    while (!ended && std::getline(in, raw)) {
        ++line_no;
        std::string u = upper(raw);
        if (!started) {
            size_t b = u.find_first_not_of(" \t\r");
            if (b == std::string::npos)
                continue;
            if (u.compare(b, 4, "&FCI") != 0)
                fail(line_no, "expected '&FCI' namelist header");
            started = true;
        }
        header += " " + u;
        if (u.find("&END") != std::string::npos ||
            u.find('/') != std::string::npos)
            ended = true;
    }
    if (!started)
        throw ParseError("FCIDUMP parse error: empty file (no &FCI header)");
    if (!ended)
        fail(line_no, "unterminated namelist (missing &END or /)");

    auto field = [&](const std::string &key) -> long {
        size_t p = header.find(key + "=");
        if (p == std::string::npos)
            fail(line_no, "missing " + key + " in namelist");
        p += key.size() + 1;
        char *end = nullptr;
        long v = std::strtol(header.c_str() + p, &end, 10);
        if (end == header.c_str() + p)
            fail(line_no, "invalid " + key + " value");
        return v;
    };
    norb = field("NORB");
    nelec = field("NELEC");
    if (norb <= 0)
        fail(line_no, "NORB out of range");
    if (nelec < 0)
        fail(line_no, "NELEC out of range");
}

} // namespace

MoIntegrals
parseFcidump(std::istream &in)
{
    return parseFcidump(in, ParseLimits{});
}

MoIntegrals
parseFcidump(std::istream &in, const ParseLimits &limits)
{
    size_t line_no = 0;
    long norb = 0, nelec = 0;
    parseHeader(in, line_no, norb, nelec);
    // The dense one- and two-body tables are sized from the header
    // alone, so bound their bytes by the input byte cap before
    // allocating: a 29-byte header cannot ask for NORB^4 doubles
    // (NORB <= 0xffff keeps NORB^4 inside 64 bits).
    const uint64_t n = static_cast<uint64_t>(norb);
    const uint64_t cap =
        limits.maxFileBytes != 0 ? limits.maxFileBytes : UINT64_MAX;
    if (n > 0xffff || (n * n * n * n + n * n) > cap / sizeof(double))
        fail(line_no, "NORB " + std::to_string(norb) +
                          " needs dense integral tables larger than the " +
                          std::to_string(cap) + "-byte input cap");
    if (nelec > 2 * norb)
        fail(line_no, "NELEC out of range");
    // FCIDUMP is spatial-orbital data; second quantization doubles the
    // mode count, so the --max-modes cap applies to 2*NORB.
    if (limits.maxModes != 0 &&
        2 * norb > static_cast<long>(limits.maxModes))
        fail(line_no, "NORB " + std::to_string(norb) + " implies " +
                          std::to_string(2 * norb) +
                          " modes, exceeding the mode cap (" +
                          std::to_string(limits.maxModes) + ")");

    uint64_t integral_lines = 0;
    MoIntegrals mo;
    mo.numOrbitals = static_cast<uint32_t>(norb);
    mo.numElectrons = static_cast<uint32_t>(nelec);
    mo.oneBody = RealMatrix(static_cast<size_t>(norb),
                            static_cast<size_t>(norb));
    mo.twoBody = EriTensor(static_cast<size_t>(norb));

    std::string raw;
    while (std::getline(in, raw)) {
        ++line_no;
        if (limits.maxLineBytes != 0 && raw.size() > limits.maxLineBytes)
            fail(line_no, "line exceeds " +
                              std::to_string(limits.maxLineBytes) +
                              " bytes");
        if (raw.find_first_not_of(" \t\r") == std::string::npos)
            continue; // blank line
        ++integral_lines;
        if (limits.maxTerms != 0 && integral_lines > limits.maxTerms)
            fail(line_no, "integral count exceeds the term cap (" +
                              std::to_string(limits.maxTerms) + ")");
        // Fortran codes write doubles with D exponents (1.5D+00); the
        // data section contains no other letters, so a blanket
        // substitution is safe.
        for (char &c : raw)
            if (c == 'D' || c == 'd')
                c = 'e';

        // Hand-tokenized + from_chars: stream extraction honors the
        // global locale, so "0.5" would misparse under a comma-decimal
        // numpunct. from_chars rejects the leading '+' Fortran writers
        // may emit — parseDoubleToken handles it for the value; for the
        // integer indices skip '+' only when a digit follows, so "+-1"
        // stays a parse error as under stream extraction.
        size_t pos = 0;
        auto skipSpace = [&] {
            while (pos < raw.size() &&
                   (raw[pos] == ' ' || raw[pos] == '\t' || raw[pos] == '\r'))
                ++pos;
        };
        skipSpace();
        double value = 0.0;
        {
            const char *end = parseDoubleToken(
                raw.data() + pos, raw.data() + raw.size(), value);
            if (end == raw.data() + pos)
                fail(line_no, "expected a numeric integral value");
            pos = static_cast<size_t>(end - raw.data());
        }
        long idx[4];
        for (long &v : idx) {
            skipSpace();
            size_t b = pos;
            if (b + 1 < raw.size() && raw[b] == '+' &&
                raw[b + 1] >= '0' && raw[b + 1] <= '9')
                ++b;
            auto [end, ec] = std::from_chars(
                raw.data() + b, raw.data() + raw.size(), v);
            if (ec != std::errc{} || end == raw.data() + b)
                fail(line_no, "expected 'value i j k l'");
            pos = static_cast<size_t>(end - raw.data());
        }
        skipSpace();
        if (pos != raw.size())
            fail(line_no, "unexpected trailing characters");
        const long i = idx[0], j = idx[1], k = idx[2], l = idx[3];
        if (!std::isfinite(value))
            fail(line_no, "non-finite integral value");
        if (i < 0 || j < 0 || k < 0 || l < 0 || i > norb || j > norb ||
            k > norb || l > norb)
            fail(line_no, "orbital index out of range [0, NORB]");

        if (i == 0 && j == 0 && k == 0 && l == 0) {
            mo.coreEnergy = value;
        } else if (k == 0 && l == 0) {
            if (i == 0 || j == 0)
                fail(line_no, "one-electron integral with a zero index");
            mo.oneBody(static_cast<size_t>(i - 1),
                       static_cast<size_t>(j - 1)) = value;
            mo.oneBody(static_cast<size_t>(j - 1),
                       static_cast<size_t>(i - 1)) = value;
        } else if (i != 0 && j != 0 && k != 0 && l != 0) {
            size_t a = static_cast<size_t>(i - 1),
                   b = static_cast<size_t>(j - 1),
                   c = static_cast<size_t>(k - 1),
                   d = static_cast<size_t>(l - 1);
            // Chemist (ab|cd): 8-fold real-orbital symmetry.
            mo.twoBody.at(a, b, c, d) = value;
            mo.twoBody.at(b, a, c, d) = value;
            mo.twoBody.at(a, b, d, c) = value;
            mo.twoBody.at(b, a, d, c) = value;
            mo.twoBody.at(c, d, a, b) = value;
            mo.twoBody.at(d, c, a, b) = value;
            mo.twoBody.at(c, d, b, a) = value;
            mo.twoBody.at(d, c, b, a) = value;
        } else {
            fail(line_no, "mixed zero/nonzero indices in integral line");
        }
    }
    return mo;
}

MoIntegrals
loadFcidumpFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ParseError("cannot open file: " + path);
    return parseFcidump(in);
}

FermionHamiltonian
loadFcidumpHamiltonian(const std::string &path)
{
    return secondQuantize(loadFcidumpFile(path));
}

void
writeFcidump(std::ostream &out, const MoIntegrals &mo, double tol)
{
    // FCIDUMP is C-locale text; block numpunct grouping ("NORB=1,024").
    ClassicLocaleScope locale_scope(out);
    const size_t n = mo.numOrbitals;
    out << "&FCI NORB=" << n << ",NELEC=" << mo.numElectrons
        << ",MS2=0,\n  ORBSYM=";
    for (size_t i = 0; i < n; ++i)
        out << "1,";
    out << "\n  ISYM=1,\n&END\n";

    auto emit = [&](double v, size_t i, size_t j, size_t k, size_t l) {
        out << " " << jsonNumberToString(v) << " " << i << " " << j << " "
            << k << " " << l << "\n";
    };
    // Unique (ij|kl) with i>=j, k>=l, (ij)>=(kl) in compound order.
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j)
            for (size_t k = 0; k <= i; ++k)
                for (size_t l = 0; l <= k; ++l) {
                    size_t ij = i * (i + 1) / 2 + j;
                    size_t kl = k * (k + 1) / 2 + l;
                    if (kl > ij)
                        continue;
                    double v = mo.twoBody.at(i, j, k, l);
                    if (std::abs(v) > tol)
                        emit(v, i + 1, j + 1, k + 1, l + 1);
                }
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j)
            if (std::abs(mo.oneBody(i, j)) > tol)
                emit(mo.oneBody(i, j), i + 1, j + 1, 0, 0);
    emit(mo.coreEnergy, 0, 0, 0, 0);
}

} // namespace hatt::io
