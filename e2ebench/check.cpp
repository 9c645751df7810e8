/**
 * @file
 * e2e_check — output checks that share no code with the compiler under
 * test (this program does not link the hatt library).
 *
 *   e2e_check MAPPING_JSON QUBIT_JSON
 *
 * Reads the emitted "hatt-mapping" and "hatt-pauli-sum" artifacts with
 * its own token scanner and prints one JSON line:
 *
 *   modes, qubits       the mapping's declared sizes
 *   majoranas           Majorana strings found (must be 2 * modes)
 *   anticommute         every pair of distinct Majorana strings
 *                       anticommutes (symplectic bit check)
 *   square_identity     every coefficient c has c^2 = 1, so each
 *                       Majorana operator squares to the identity
 *   pauli_weight        non-identity letters summed over the qubit
 *                       Hamiltonian's terms
 *   qubit_terms         terms with at least one non-identity letter
 *
 * Exit 0 when both files scan, 1 otherwise.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

std::string
slurp(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error(std::string("cannot open ") + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Cursor over one document; every step skips JSON whitespace first. */
struct Scanner
{
    const std::string &text;
    size_t pos = 0;

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\r' ||
                text[pos] == '\t'))
            ++pos;
    }

    void
    expect(char c)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at byte " + std::to_string(pos));
        ++pos;
    }

    /** Advance past the next occurrence of the key "@p key" and its ':';
        false when there is none. */
    bool
    seekKey(const std::string &key)
    {
        const std::string quoted = "\"" + key + "\"";
        size_t at = text.find(quoted, pos);
        if (at == std::string::npos)
            return false;
        pos = at + quoted.size();
        expect(':');
        return true;
    }

    double
    number()
    {
        skipSpace();
        const char *begin = text.c_str() + pos;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            throw std::runtime_error("expected a number at byte " +
                                     std::to_string(pos));
        pos += static_cast<size_t>(end - begin);
        return v;
    }

    std::string
    string()
    {
        expect('"');
        size_t close = text.find('"', pos);
        if (close == std::string::npos)
            throw std::runtime_error("unterminated string");
        std::string s = text.substr(pos, close - pos);
        pos = close + 1;
        return s;
    }
};

struct Term
{
    double re = 0.0;
    double im = 0.0;
    std::string label;
};

/** Every {"coeff": [re, im], "pauli": "..."} term of a document, in
    order; the two keys are paired by position. */
std::vector<Term>
scanTerms(const std::string &text)
{
    std::vector<Term> terms;
    Scanner coeffs{text};
    while (coeffs.seekKey("coeff")) {
        Term t;
        coeffs.expect('[');
        t.re = coeffs.number();
        coeffs.expect(',');
        t.im = coeffs.number();
        coeffs.expect(']');
        terms.push_back(t);
    }
    Scanner labels{text};
    size_t i = 0;
    while (labels.seekKey("pauli")) {
        if (i >= terms.size())
            throw std::runtime_error("more pauli labels than coefficients");
        terms[i++].label = labels.string();
    }
    if (i != terms.size())
        throw std::runtime_error("fewer pauli labels than coefficients");
    return terms;
}

uint64_t
scanCount(const std::string &text, const std::string &key)
{
    Scanner s{text};
    if (!s.seekKey(key))
        throw std::runtime_error("missing \"" + key + "\"");
    return static_cast<uint64_t>(s.number());
}

/** A Pauli string as symplectic bit rows: X -> x, Z -> z, Y -> both. */
struct Symplectic
{
    std::vector<uint64_t> x, z;
};

Symplectic
pack(const std::string &label)
{
    const size_t words = (label.size() + 63) / 64;
    Symplectic s{std::vector<uint64_t>(words), std::vector<uint64_t>(words)};
    for (size_t q = 0; q < label.size(); ++q) {
        const uint64_t bit = uint64_t{1} << (q % 64);
        const char c = label[q];
        if (c == 'X' || c == 'Y')
            s.x[q / 64] |= bit;
        if (c == 'Z' || c == 'Y')
            s.z[q / 64] |= bit;
        if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
            throw std::runtime_error("bad pauli letter in " + label);
    }
    return s;
}

/** Two Pauli strings anticommute iff their symplectic product is odd. */
bool
anticommutes(const Symplectic &a, const Symplectic &b)
{
    uint64_t acc = 0;
    for (size_t w = 0; w < a.x.size(); ++w)
        acc ^= (a.x[w] & b.z[w]) ^ (a.z[w] & b.x[w]);
    return (std::popcount(acc) & 1) != 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: e2e_check MAPPING_JSON QUBIT_JSON\n";
        return 64;
    }
    try {
        const std::string mapping = slurp(argv[1]);
        const uint64_t modes = scanCount(mapping, "num_modes");
        const uint64_t qubits = scanCount(mapping, "num_qubits");
        const std::vector<Term> majoranas = scanTerms(mapping);

        bool square_identity = true;
        bool sized = true; // every label has num_qubits letters
        std::vector<Symplectic> rows;
        rows.reserve(majoranas.size());
        for (const Term &t : majoranas) {
            // (c P)^2 = c^2 I for a Pauli string P.
            const double re2 = t.re * t.re - t.im * t.im;
            const double im2 = 2.0 * t.re * t.im;
            if (std::abs(re2 - 1.0) > 1e-12 || std::abs(im2) > 1e-12)
                square_identity = false;
            sized = sized && t.label.size() == qubits;
            rows.push_back(pack(t.label));
        }
        // Rows of different widths cannot be compared word by word.
        bool anticommute = sized;
        for (size_t i = 0; i < rows.size() && anticommute; ++i)
            for (size_t j = i + 1; j < rows.size(); ++j)
                if (!anticommutes(rows[i], rows[j])) {
                    anticommute = false;
                    break;
                }

        uint64_t weight = 0, nonidentity = 0;
        for (const Term &t : scanTerms(slurp(argv[2]))) {
            uint64_t w = 0;
            for (char c : t.label)
                w += c != 'I';
            weight += w;
            nonidentity += w != 0;
        }

        std::cout << "{\"modes\": " << modes << ", \"qubits\": " << qubits
                  << ", \"majoranas\": " << majoranas.size()
                  << ", \"anticommute\": " << (anticommute ? "true" : "false")
                  << ", \"square_identity\": "
                  << (square_identity ? "true" : "false")
                  << ", \"pauli_weight\": " << weight
                  << ", \"qubit_terms\": " << nonidentity << "}\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "e2e_check: " << e.what() << "\n";
        return 1;
    }
}
