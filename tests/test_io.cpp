/**
 * @file
 * io subsystem tests: JSON round trips, .ops / FCIDUMP parsing and
 * malformed-input rejection, streaming Majorana preprocessing (bit-exact
 * parity with the batch path + interface-level memory evidence on a
 * >= 10^5-term Hubbard lattice), versioned serialization round trips
 * pinned against the seed hashes of tests/test_perf_parity.cpp, the
 * streaming JSON writer's byte equality with the reference encoders, and
 * the content-addressed mapping cache.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <locale>
#include <map>
#include <numeric>
#include <sstream>

#include "chem/molecule.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/cache.hpp"
#include "io/driver.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::JsonValue;
using io::ParseError;

/** FNV-1a over the mapping strings, as pinned in test_perf_parity. */
uint64_t
stringsHash(const FermionQubitMapping &map)
{
    uint64_t h = 1469598103934665603ull;
    for (const auto &m : map.majorana)
        for (char c : m.string.toString()) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    return h;
}

/** FNV-1a over a PauliSum's term strings + coefficient bit patterns. */
uint64_t
sumHash(const PauliSum &sum)
{
    uint64_t h = 1469598103934665603ull;
    auto mix_bytes = [&](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const PauliTerm &t : sum.terms()) {
        double re = t.coeff.real(), im = t.coeff.imag();
        mix_bytes(&re, sizeof(re));
        mix_bytes(&im, sizeof(im));
        std::string s = t.string.toString();
        mix_bytes(s.data(), s.size());
    }
    return h;
}

/** Locate a file under examples/data from the build/test working dir. */
std::string
dataFile(const std::string &name)
{
    for (const char *prefix :
         {"../examples/data/", "examples/data/", "../../examples/data/"}) {
        std::string p = prefix + name;
        if (std::ifstream(p).good())
            return p;
    }
    ADD_FAILURE() << "cannot locate examples/data/" << name;
    return name;
}

/** Fresh scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_io_test_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------------ JSON

TEST(Json, RoundTripsValuesBitExactly)
{
    JsonValue doc = JsonValue::object();
    doc.add("int", 42);
    doc.add("neg", -7);
    doc.add("pi", 3.141592653589793);
    doc.add("tiny", 4.9406564584124654e-324); // denormal min
    doc.add("text", std::string("a\"b\\c\n\t\x01"));
    doc.add("flag", true);
    doc.add("nothing", nullptr);
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push("two");
    arr.push(JsonValue::array());
    doc.add("arr", std::move(arr));

    for (int indent : {-1, 2}) {
        JsonValue back = JsonValue::parse(doc.dump(indent));
        EXPECT_EQ(back.at("int").asInt(), 42);
        EXPECT_EQ(back.at("neg").asInt(), -7);
        EXPECT_EQ(back.at("pi").asNumber(), 3.141592653589793);
        EXPECT_EQ(back.at("tiny").asNumber(), 4.9406564584124654e-324);
        EXPECT_EQ(back.at("text").asString(), "a\"b\\c\n\t\x01");
        EXPECT_TRUE(back.at("flag").asBool());
        EXPECT_TRUE(back.at("nothing").isNull());
        EXPECT_EQ(back.at("arr").size(), 3u);
        EXPECT_EQ(back.at("arr").at(size_t{1}).asString(), "two");
    }
}

TEST(Json, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,", "[1 2]", "{\"a\" 1}", "{\"a\":}", "tru",
          "\"unterminated", "\"bad \\q escape\"", "1.2.3", "[1] trailing",
          "{\"a\":1,}", "\"\\ud800\"", "nan"}) {
        EXPECT_THROW(JsonValue::parse(bad), ParseError) << bad;
    }
}

TEST(Json, RangeSemanticsMatchStrtod)
{
    // Out-of-range magnitudes keep the historical strtod behavior:
    // underflow is signed zero, overflow saturates to infinity (which
    // jsonNumberToString refuses to re-serialize). Values near the
    // denormal boundary still parse exactly.
    EXPECT_EQ(JsonValue::parse("1e-999").asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(JsonValue::parse("-1e-999").asNumber()));
    EXPECT_TRUE(std::isinf(JsonValue::parse("1e999").asNumber()));
    EXPECT_LT(JsonValue::parse("-1e999").asNumber(), 0.0);
    EXPECT_EQ(JsonValue::parse("4.9406564584124654e-324").asNumber(),
              4.9406564584124654e-324);
    EXPECT_THROW(io::jsonNumberToString(
                     JsonValue::parse("1e999").asNumber()),
                 ParseError);
}

TEST(Json, RejectsAbsurdNesting)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_THROW(JsonValue::parse(deep), ParseError);
}

// ------------------------------------------------------------- .ops text

TEST(FermionText, ParsesTermsAndHeader)
{
    std::istringstream in("# comment\n"
                          "modes 5\n"
                          "\n"
                          "1.5 [0^ 1]\n"
                          "-2e-3 [] +\n"
                          "(0.5-0.25j) [4^ 3^ 4 3]   # inline comment\n");
    FermionHamiltonian hf = io::parseFermionText(in);
    ASSERT_EQ(hf.numModes(), 5u);
    ASSERT_EQ(hf.size(), 3u);
    EXPECT_EQ(hf.terms()[0].coeff, cplx(1.5, 0.0));
    ASSERT_EQ(hf.terms()[0].ops.size(), 2u);
    EXPECT_EQ(hf.terms()[0].ops[0], create(0));
    EXPECT_EQ(hf.terms()[0].ops[1], annihilate(1));
    EXPECT_EQ(hf.terms()[1].coeff, cplx(-2e-3, 0.0));
    EXPECT_TRUE(hf.terms()[1].ops.empty());
    EXPECT_EQ(hf.terms()[2].coeff, cplx(0.5, -0.25));
    ASSERT_EQ(hf.terms()[2].ops.size(), 4u);
    EXPECT_EQ(hf.terms()[2].ops[0], create(4));
}

TEST(FermionText, RangeSemanticsMatchStrtod)
{
    // Underflowing coefficients quietly become (signed) zero, exactly as
    // the historical strtod-based parser accepted them; overflow stays a
    // hard error (covered in RejectsMalformedInput). '+' prefixes parse.
    std::istringstream in("1e-999 [0]\n"
                          "-1e-999 [1]\n"
                          "+2.5 [0^ 1]\n"
                          "(+0.5+1e-999j) [1]\n");
    FermionHamiltonian hf = io::parseFermionText(in);
    ASSERT_EQ(hf.size(), 4u);
    EXPECT_EQ(hf.terms()[0].coeff, cplx(0.0, 0.0));
    EXPECT_EQ(hf.terms()[1].coeff, cplx(-0.0, 0.0));
    EXPECT_EQ(hf.terms()[2].coeff, cplx(2.5, 0.0));
    EXPECT_EQ(hf.terms()[3].coeff, cplx(0.5, 0.0));
}

TEST(FermionText, InfersModesWhenUndeclared)
{
    std::istringstream in("1.0 [6^ 2]\n");
    FermionHamiltonian hf = io::parseFermionText(in);
    EXPECT_EQ(hf.numModes(), 7u);
}

TEST(FermionText, StreamingCallbackSeesEveryTermWithoutAList)
{
    std::ostringstream doc;
    doc << "modes 12\n";
    for (int i = 0; i < 500; ++i)
        doc << (i % 2 ? 1.0 : -0.5) << " [" << i % 12 << "^ "
            << (i + 5) % 12 << "]\n";
    std::istringstream in(doc.str());
    size_t seen = 0;
    io::FermionTextInfo info =
        io::streamFermionText(in, [&](FermionTerm &&t) {
            EXPECT_EQ(t.ops.size(), 2u);
            ++seen;
            return true;
        });
    EXPECT_EQ(seen, 500u);
    EXPECT_EQ(info.numTerms, 500u);
    EXPECT_EQ(info.numModes, 12u);
    EXPECT_TRUE(info.declaredModes);
}

TEST(FermionText, CallbackCanStopEarly)
{
    std::istringstream in("1 [0]\n2 [1]\n3 [2]\n");
    size_t seen = 0;
    io::streamFermionText(in, [&](FermionTerm &&) { return ++seen < 2; });
    EXPECT_EQ(seen, 2u);
}

TEST(FermionText, RejectsMalformedInput)
{
    const char *bad_docs[] = {
        "1.0 [0^ 1",             // truncated: missing ]
        "abc [0]",               // non-numeric coefficient
        "1.0 0^ 1]",             // missing [
        "1.0 [0^ x]",            // non-numeric mode
        "1.0 [0^1]",             // missing separator
        "(1.0) [0]",             // complex without imag part
        "(1.0+2j [0]",           // unterminated complex
        "1.0j [0]",              // bare imaginary coefficient
        "1.0 [0] trailing",      // garbage after term
        "modes 4\n1.0 [5^ 0]",   // mode out of declared range
        "modes 0\n1.0 [0]",      // invalid modes header
        "modes 4\nmodes 4\n",    // duplicate header
        "1.0 [0]\nmodes 4\n",    // header after terms
        "modes four\n",          // non-numeric header
        "inf [0]",               // non-finite coefficient
        "1e999 [0]",             // overflowing coefficient
        "+-2 [0]",               // double sign
        "(1.5+-0.25j) [0]",      // double sign in imaginary part
    };
    for (const char *doc : bad_docs) {
        std::istringstream in(doc);
        EXPECT_THROW(io::parseFermionText(in), ParseError) << doc;
    }
}

TEST(FermionText, WriteParseRoundTripIsExact)
{
    FermionHamiltonian hf = hubbardModel({2, 3, 1.0, 4.0});
    std::ostringstream os;
    io::writeFermionText(os, hf, "round trip");
    std::istringstream in(os.str());
    FermionHamiltonian back = io::parseFermionText(in);
    ASSERT_EQ(back.numModes(), hf.numModes());
    ASSERT_EQ(back.size(), hf.size());
    for (size_t i = 0; i < hf.size(); ++i) {
        EXPECT_EQ(back.terms()[i].coeff, hf.terms()[i].coeff);
        EXPECT_EQ(back.terms()[i].ops, hf.terms()[i].ops);
    }
}

// --------------------------------------------------------------- FCIDUMP

TEST(Fcidump, ParsesHeaderAndIntegrals)
{
    std::istringstream in("&FCI NORB=2,NELEC=2,MS2=0,\n"
                          " ORBSYM=1,1,\n"
                          " ISYM=1,\n"
                          "&END\n"
                          " 0.5 1 1 1 1\n"
                          " 0.25 2 1 2 1\n"
                          " -1.25 1 1 0 0\n"
                          " 0.75 0 0 0 0\n");
    MoIntegrals mo = io::parseFcidump(in);
    EXPECT_EQ(mo.numOrbitals, 2u);
    EXPECT_EQ(mo.numElectrons, 2u);
    EXPECT_EQ(mo.coreEnergy, 0.75);
    EXPECT_EQ(mo.oneBody(0, 0), -1.25);
    EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
    // 8-fold symmetry fan-out of (21|21).
    EXPECT_EQ(mo.twoBody.at(1, 0, 1, 0), 0.25);
    EXPECT_EQ(mo.twoBody.at(0, 1, 1, 0), 0.25);
    EXPECT_EQ(mo.twoBody.at(1, 0, 0, 1), 0.25);
    EXPECT_EQ(mo.twoBody.at(0, 1, 0, 1), 0.25);
}

TEST(Fcidump, AcceptsFortranDExponents)
{
    std::istringstream in("&FCI NORB=1,NELEC=2, &END\n"
                          " 0.5D+00 1 1 1 1\n"
                          " -1.25d-01 1 1 0 0\n"
                          " 7.5D-1 0 0 0 0\n");
    MoIntegrals mo = io::parseFcidump(in);
    EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
    EXPECT_EQ(mo.oneBody(0, 0), -0.125);
    EXPECT_EQ(mo.coreEnergy, 0.75);
}

TEST(Fcidump, AcceptsPlusPrefixesAndUnderflow)
{
    // Fortran writers may emit '+' on values and indices; both parsed
    // under the old stream extraction and must keep parsing. A sub-
    // denormal integral underflows to zero, as strtod-family readers do.
    std::istringstream in("&FCI NORB=2,NELEC=2, &END\n"
                          " +0.5 +1 +1 +1 +1\n"
                          " 1e-999 2 1 2 1\n"
                          " +7.5D-1 0 0 0 0\n");
    MoIntegrals mo = io::parseFcidump(in);
    EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
    EXPECT_EQ(mo.twoBody.at(1, 0, 1, 0), 0.0);
    EXPECT_EQ(mo.coreEnergy, 0.75);
}

TEST(Fcidump, RejectsMalformedInput)
{
    const char *bad_docs[] = {
        "",                                          // empty
        "NORB=2\n",                                  // no &FCI
        "&FCI NORB=2,NELEC=2,\n",                    // no &END
        "&FCI NELEC=2, &END\n",                      // missing NORB
        "&FCI NORB=0,NELEC=0, &END\n",               // NORB out of range
        "&FCI NORB=4096,NELEC=2,&END",               // NORB^4 past byte cap
        "&FCI NORB=2,NELEC=9, &END\n",               // NELEC out of range
        "&FCI NORB=2,NELEC=2, &END\n 0.5 1 1 1\n",   // truncated line
        "&FCI NORB=2,NELEC=2, &END\n 0.5 3 1 1 1\n", // index > NORB
        "&FCI NORB=2,NELEC=2, &END\n 0.5 1 0 1 1\n", // mixed zero indices
        "&FCI NORB=2,NELEC=2, &END\n x 1 1 1 1\n",   // non-numeric value
        "&FCI NORB=2,NELEC=2, &END\n 0.5 1 1 1 1 9\n", // trailing junk
        "&FCI NORB=2,NELEC=2, &END\n +-0.5 1 1 1 1\n", // double sign
        "&FCI NORB=2,NELEC=2, &END\n 0.5 +-1 1 1 1\n", // double-sign index
    };
    for (const char *doc : bad_docs) {
        std::istringstream in(doc);
        EXPECT_THROW(io::parseFcidump(in), ParseError) << doc;
    }
}

TEST(Fcidump, WriteParseRoundTripIsExact)
{
    MoIntegrals mo = io::loadFcidumpFile(dataFile("h2.fcidump"));
    std::ostringstream os;
    io::writeFcidump(os, mo);
    std::istringstream in(os.str());
    MoIntegrals back = io::parseFcidump(in);
    ASSERT_EQ(back.numOrbitals, mo.numOrbitals);
    EXPECT_EQ(back.numElectrons, mo.numElectrons);
    EXPECT_EQ(back.coreEnergy, mo.coreEnergy);
    const size_t n = mo.numOrbitals;
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j) {
            EXPECT_EQ(back.oneBody(i, j), mo.oneBody(i, j));
            for (size_t k = 0; k < n; ++k)
                for (size_t l = 0; l < n; ++l)
                    EXPECT_EQ(back.twoBody.at(i, j, k, l),
                              mo.twoBody.at(i, j, k, l));
        }
}

/** Pauli weight of @p poly under @p map. */
uint64_t
weightUnder(const MajoranaPolynomial &poly, const FermionQubitMapping &map)
{
    return hamiltonianMetrics(mapToQubits(poly, map)).pauliWeight;
}

TEST(Fcidump, LoadedPolynomialMatchesSecondQuantizeOracle)
{
    // loadProblem folds FCIDUMP integrals straight into Majorana
    // monomials (addIntegralMonomials). The oracle is the general path,
    // fromFermion(secondQuantize(mo)): the same monomial set, the same
    // coefficients up to rounding, the same term count and the same
    // Pauli weight under every fixed mapping and HATT, on every Table I
    // molecule (written with writeFcidump) and the sample file.
    const fs::path dir = scratchDir("fcidump_oracle");
    std::vector<std::string> paths = {dataFile("h2.fcidump")};
    for (const MoleculeSpec &spec : std::vector<MoleculeSpec>{
             {"H2", BasisSet::Sto3g, false, 0},
             {"LiH", BasisSet::Sto3g, true, 3},
             {"LiH", BasisSet::Sto3g, false, 0},
             {"H2O", BasisSet::Sto3g, false, 0},
             {"CH4", BasisSet::Sto3g, false, 0},
             {"O2", BasisSet::Sto3g, false, 0},
             {"NaF", BasisSet::Sto3g, false, 0},
             {"CO2", BasisSet::Sto3g, false, 0}}) {
        const fs::path path =
            dir / (spec.name + (spec.freezeCore ? "_frz" : "") + ".fcidump");
        std::ofstream out(path);
        io::writeFcidump(out, buildMolecule(spec).integrals);
        ASSERT_TRUE(out.good()) << path;
        paths.push_back(path.string());
    }
    for (const std::string &path : paths) {
        SCOPED_TRACE(path);
        const io::LoadedProblem loaded = io::loadProblem(path);
        const FermionHamiltonian hf =
            secondQuantize(io::loadFcidumpFile(path));
        const MajoranaPolynomial oracle = MajoranaPolynomial::fromFermion(hf);
        EXPECT_EQ(loaded.fermionTerms, hf.size());
        ASSERT_EQ(loaded.numModes, oracle.numModes());
        ASSERT_EQ(loaded.poly.size(), oracle.size());
        std::map<std::vector<uint32_t>, cplx> want;
        for (const MajoranaMonomial &t : oracle)
            want.emplace(std::vector<uint32_t>(t.indices.begin(),
                                               t.indices.end()),
                         t.coeff);
        for (const MajoranaMonomial &t : loaded.poly) {
            auto it = want.find(
                std::vector<uint32_t>(t.indices.begin(), t.indices.end()));
            ASSERT_NE(it, want.end()) << t.toString();
            // The identity and the x_P y_P monomials sum a column of
            // integrals with cancellation, and the oracle folds them
            // from thousands of terms: its rounding there reaches 5e-14
            // of the value (CO2), ~10x that of the closed form when both
            // are compared with a long double sum.
            const bool folded =
                t.indices.empty() ||
                (t.indices.size() == 2 && t.indices[0] % 2 == 0 &&
                 t.indices[1] == t.indices[0] + 1);
            const double tol = (folded ? 1e-13 : 1e-14) *
                               std::max(1.0, std::abs(it->second));
            EXPECT_LE(std::abs(t.coeff - it->second), tol) << t.toString();
        }
        const uint32_t n = loaded.numModes;
        for (const FermionQubitMapping &map :
             {jordanWignerMapping(n), bravyiKitaevMapping(n),
              balancedTernaryTreeMapping(n)})
            EXPECT_EQ(weightUnder(loaded.poly, map), weightUnder(oracle, map));
        EXPECT_EQ(
            weightUnder(loaded.poly, buildHattMapping(loaded.poly).mapping),
            weightUnder(oracle, buildHattMapping(oracle).mapping));
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------- locale independence

/**
 * Force a comma-decimal, dot-grouping numeric environment: a custom
 * numpunct installed as the global C++ locale (streams imbue it at
 * construction) plus, when the host has one generated, a real
 * comma-decimal C locale for LC_NUMERIC (strtod/snprintf). Restores
 * both on destruction.
 */
class CommaLocaleGuard
{
    struct CommaNumpunct : std::numpunct<char>
    {
        char do_decimal_point() const override { return ','; }
        char do_thousands_sep() const override { return '.'; }
        std::string do_grouping() const override { return "\3"; }
    };

  public:
    CommaLocaleGuard()
        : prev_global_(std::locale::global(
              std::locale(std::locale::classic(), new CommaNumpunct)))
    {
        for (const char *name :
             {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE", "fr_FR",
              "nl_NL.UTF-8"})
            if (std::setlocale(LC_NUMERIC, name)) {
                c_side_active_ = true;
                break;
            }
    }

    ~CommaLocaleGuard()
    {
        std::setlocale(LC_NUMERIC, "C");
        std::locale::global(prev_global_);
    }

    bool cSideActive() const { return c_side_active_; }

  private:
    std::locale prev_global_;
    bool c_side_active_ = false;
};

TEST(Locale, NumberIoSurvivesCommaDecimalLocale)
{
    CommaLocaleGuard guard;

    // Prove the hostile locale is really in force for freshly
    // constructed streams — this is what the parsers/writers must defeat.
    {
        std::ostringstream probe;
        probe << 0.5 << " " << 32768;
        EXPECT_EQ(probe.str(), "0,5 32.768");
    }
    if (guard.cSideActive()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", 0.5);
        EXPECT_STREQ(buf, "0,5");
    }

    // JSON: serialization emits '.'-decimals and parsing accepts them,
    // bit-exactly, regardless of locale.
    {
        JsonValue doc = JsonValue::object();
        doc.add("pi", 3.141592653589793);
        doc.add("tiny", 4.9406564584124654e-324);
        doc.add("big", 1.5e16);
        std::string text = doc.dump();
        // '.'-decimal renderings, never "3,1415..." (JSON's own object
        // separators are commas, so check the numbers specifically).
        EXPECT_NE(text.find("3.1415926535897931"), std::string::npos)
            << text;
        EXPECT_NE(text.find("4.9406564584124654e-324"), std::string::npos)
            << text;
        JsonValue back = JsonValue::parse(text);
        EXPECT_EQ(back.at("pi").asNumber(), 3.141592653589793);
        EXPECT_EQ(back.at("tiny").asNumber(), 4.9406564584124654e-324);
        EXPECT_EQ(back.at("big").asNumber(), 1.5e16);
    }

    // .ops: fractional and complex coefficients round-trip exactly.
    {
        std::istringstream in("modes 3\n"
                              "1.5 [0^ 1]\n"
                              "-2.5e-3 [2]\n"
                              "(0.5-0.25j) [1^ 2^ 1 2]\n");
        FermionHamiltonian hf = io::parseFermionText(in);
        ASSERT_EQ(hf.size(), 3u);
        EXPECT_EQ(hf.terms()[0].coeff, cplx(1.5, 0.0));
        EXPECT_EQ(hf.terms()[1].coeff, cplx(-2.5e-3, 0.0));
        EXPECT_EQ(hf.terms()[2].coeff, cplx(0.5, -0.25));

        std::ostringstream os;
        io::writeFermionText(os, hf, "comma locale");
        EXPECT_EQ(os.str().find(','), std::string::npos) << os.str();
        std::istringstream back_in(os.str());
        FermionHamiltonian back = io::parseFermionText(back_in);
        ASSERT_EQ(back.size(), hf.size());
        for (size_t i = 0; i < hf.size(); ++i)
            EXPECT_EQ(back.terms()[i].coeff, hf.terms()[i].coeff);
    }

    // FCIDUMP: '.'-decimal and Fortran D-exponent values parse exactly;
    // the writer never emits grouped integers or comma decimals.
    {
        std::istringstream in("&FCI NORB=2,NELEC=2, &END\n"
                              " 0.5 1 1 1 1\n"
                              " 6.25D-02 2 1 2 1\n"
                              " -1.25 1 1 0 0\n"
                              " 0.75 0 0 0 0\n");
        MoIntegrals mo = io::parseFcidump(in);
        EXPECT_EQ(mo.twoBody.at(0, 0, 0, 0), 0.5);
        EXPECT_EQ(mo.twoBody.at(1, 0, 1, 0), 0.0625);
        EXPECT_EQ(mo.oneBody(0, 0), -1.25);
        EXPECT_EQ(mo.coreEnergy, 0.75);

        std::ostringstream os;
        io::writeFcidump(os, mo);
        EXPECT_EQ(os.str().find(','), os.str().find(",NELEC"))
            << os.str(); // only the namelist's literal commas
        std::istringstream back_in(os.str());
        MoIntegrals back = io::parseFcidump(back_in);
        EXPECT_EQ(back.coreEnergy, mo.coreEnergy);
        EXPECT_EQ(back.oneBody(0, 0), mo.oneBody(0, 0));
        EXPECT_EQ(back.twoBody.at(1, 0, 1, 0), mo.twoBody.at(1, 0, 1, 0));
    }
}

// ----------------------------------------------- streaming preprocessing

/**
 * A Hamiltonian whose coefficients are NOT exactly representable sums
 * (irrational values, many terms expanding to the same monomial), so a
 * coefficient fold that re-associated any per-monomial sum would drift
 * in the last ulp and fail the bit-exact comparisons below.
 */
FermionHamiltonian
nonDyadicHamiltonian()
{
    FermionHamiltonian hf(6);
    int k = 0;
    for (uint32_t p = 0; p < 6; ++p)
        for (uint32_t q = 0; q < 6; ++q) {
            ++k;
            hf.add(FermionTerm{
                cplx{std::sin(1.0 + k), std::cos(2.0 + k) / 3.0},
                {FermionOp{p, true}, FermionOp{q, false}}});
        }
    for (uint32_t p = 0; p < 4; ++p)
        hf.add(FermionTerm{cplx{1.0 / 3.0 + 0.1 * p, 0.0},
                           {FermionOp{p, true}, FermionOp{p + 1, true},
                            FermionOp{p + 1, false},
                            FermionOp{p, false}}});
    return hf;
}

void
expectBitIdentical(const MajoranaPolynomial &got,
                   const MajoranaPolynomial &want)
{
    ASSERT_EQ(got.numModes(), want.numModes());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const MajoranaMonomial g = got[i], w = want[i];
        EXPECT_TRUE(std::ranges::equal(g.indices, w.indices))
            << "term " << i;
        // operator== on doubles is exact; together with the memcmp this
        // also rejects a -0.0 vs +0.0 drift.
        EXPECT_EQ(g.coeff, w.coeff) << "term " << i;
        EXPECT_EQ(std::memcmp(&g.coeff, &w.coeff, sizeof(cplx)), 0)
            << "term " << i;
    }
}

TEST(Stream, MatchesBatchPreprocessingBitExactly)
{
    for (const FermionHamiltonian &hf :
         {hubbardModel({2, 3, 1.0, 4.0}), nonDyadicHamiltonian()}) {
        MajoranaPolynomial batch = MajoranaPolynomial::fromFermion(hf);

        StreamingMajoranaAccumulator acc(hf.numModes());
        for (const FermionTerm &t : hf.terms())
            acc.add(t);
        MajoranaPolynomial streamed = acc.finish();

        expectBitIdentical(streamed, batch);
        EXPECT_EQ(io::majoranaContentHash(streamed),
                  io::majoranaContentHash(batch));
    }
}

TEST(Stream, HundredThousandTermHubbardStreamsWithoutTermList)
{
    // 128 x 128 periodic lattice: 147456 fermionic terms, 32768 modes.
    // Terms flow generator -> accumulator one at a time; the only state
    // that grows is the deduplicated monomial set (the accumulator holds
    // no term list), bounded by the distinct-monomial count below — far
    // under the 16x expansion volume a term list + batch expansion
    // would hold.
    HubbardParams params{128, 128, 1.0, 4.0, true};
    StreamingMajoranaAccumulator acc(hubbardNumModes(params));
    streamHubbardTerms(params,
                       [&](FermionTerm &&t) { acc.add(t); });

    EXPECT_GE(acc.termsConsumed(), 100'000u);

    // Monomial count is linear in the lattice size: hopping terms touch
    // 8 distinct index sets per edge (4 per spin; the forward/backward
    // directions fold, and half cancel to zero at finish()), U terms 3
    // new sets per site plus the shared constant.
    const uint64_t sites = 128 * 128, edges = 2 * sites;
    EXPECT_LE(acc.currentMonomials(), 8 * edges + 3 * sites + 1);

    MajoranaPolynomial poly = acc.finish(); // must not exhaust memory
    EXPECT_EQ(poly.numModes(), hubbardNumModes(params));
    EXPECT_GT(poly.size(), 0u);
}

TEST(Stream, AgreesWithBatchOnStreamedHubbardLattice)
{
    HubbardParams params{4, 4, 1.0, 4.0, true};
    StreamingMajoranaAccumulator acc(hubbardNumModes(params));
    streamHubbardTerms(params, [&](FermionTerm &&t) { acc.add(t); });
    MajoranaPolynomial streamed = acc.finish();
    MajoranaPolynomial batch =
        MajoranaPolynomial::fromFermion(hubbardModel(params));
    ASSERT_EQ(streamed.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(
            std::ranges::equal(streamed[i].indices, batch[i].indices));
        EXPECT_EQ(streamed[i].coeff, batch[i].coeff);
    }
}

// ----------------------------------------------------------- serializers

TEST(Serialize, TreeRoundTripsNodeForNode)
{
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    HattResult res = buildHattMapping(poly);

    std::string text = io::treeToJson(res.tree).dump(2);
    TernaryTree back = io::treeFromJson(JsonValue::parse(text));

    ASSERT_EQ(back.numModes(), res.tree.numModes());
    ASSERT_EQ(back.numNodes(), res.tree.numNodes());
    for (size_t id = 0; id < res.tree.numNodes(); ++id) {
        const TreeNode &a = res.tree.node(static_cast<int>(id));
        const TreeNode &b = back.node(static_cast<int>(id));
        EXPECT_EQ(a.child, b.child) << "node " << id;
        EXPECT_EQ(a.parent, b.parent) << "node " << id;
        EXPECT_EQ(a.qubit, b.qubit) << "node " << id;
        EXPECT_EQ(a.leafIndex, b.leafIndex) << "node " << id;
    }

    // Re-deriving the mapping from the reloaded tree reproduces the
    // seed-pinned string hash (test_perf_parity "hub22", pairing).
    FermionQubitMapping remapped = mappingFromTree(back, "HATT");
    EXPECT_EQ(stringsHash(remapped), 2707256268756362103ull);
    EXPECT_EQ(stringsHash(remapped), stringsHash(res.mapping));
}

TEST(Serialize, MappingRoundTripsBitExactly)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(6, 14, 1);
    HattResult res = buildHattMapping(poly);
    res.mapping.majorana[3].coeff = cplx(0.25, -0.125); // exercise coeffs

    FermionQubitMapping back = io::mappingFromJson(
        JsonValue::parse(io::mappingToJson(res.mapping).dump()));
    EXPECT_EQ(back.name, res.mapping.name);
    EXPECT_EQ(back.numModes, res.mapping.numModes);
    EXPECT_EQ(back.numQubits, res.mapping.numQubits);
    ASSERT_EQ(back.majorana.size(), res.mapping.majorana.size());
    for (size_t i = 0; i < back.majorana.size(); ++i) {
        EXPECT_EQ(back.majorana[i].coeff, res.mapping.majorana[i].coeff);
        EXPECT_EQ(back.majorana[i].string, res.mapping.majorana[i].string);
    }
    // Seed-pinned hash ("rand6", pairing) survives the round trip.
    EXPECT_EQ(stringsHash(back), 17077076422476393563ull);
}

TEST(Serialize, PauliSumRoundTripsBitExactly)
{
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    HattResult res = buildHattMapping(poly);
    PauliSum hq = mapToQubits(poly, res.mapping);

    PauliSum back = io::pauliSumFromJson(
        JsonValue::parse(io::pauliSumToJson(hq).dump(2)));
    ASSERT_EQ(back.numQubits(), hq.numQubits());
    ASSERT_EQ(back.size(), hq.size());
    for (size_t i = 0; i < hq.size(); ++i) {
        EXPECT_EQ(back.terms()[i].coeff, hq.terms()[i].coeff);
        EXPECT_EQ(back.terms()[i].string, hq.terms()[i].string);
    }
    EXPECT_EQ(back.pauliWeight(), hq.pauliWeight());
    EXPECT_EQ(sumHash(back), sumHash(hq));
}

TEST(Serialize, MajoranaContentHashIsOrderIndependent)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(5, 12, 7);

    // Hash is invariant under term reordering but not under changes.
    MajoranaPolynomial shuffled(poly.numModes());
    for (size_t i = poly.size(); i-- > 0;) {
        auto t = poly.terms()[i];
        shuffled.add(t.coeff, t.indices);
    }
    EXPECT_EQ(io::majoranaContentHash(shuffled),
              io::majoranaContentHash(poly));
    StreamingMajoranaAccumulator changed(poly.numModes());
    for (const auto &t : poly.terms())
        changed.addMonomial(t.coeff, t.indices);
    changed.addMonomial(1e-3, std::vector<uint32_t>{0, 1});
    EXPECT_NE(io::majoranaContentHash(changed.finish()),
              io::majoranaContentHash(poly));
}

TEST(Serialize, ContentHashGoldenPins)
{
    // Absolute pins: the hash keys every disk cache entry, so a drift
    // in the expansion order, the coefficient bits or the hash itself
    // would orphan every existing cache. Both input formats are
    // covered. The .ops pins predate the flat-monomial kernel; the
    // FCIDUMP pin was re-recorded when FCIDUMP input moved to
    // addIntegralMonomials, whose sums differ in the last bits.
    const std::pair<const char *, uint64_t> pins[] = {
        {"eq3.ops", 0xd706104a46666dd2ull},
        {"h2.ops", 0x388eb307312bf8c0ull},
        {"h2.fcidump", 0xc5c64d78080e9894ull},
        {"hubbard2x2.ops", 0xa3cb4e1c3d3d3e39ull},
    };
    for (const auto &[name, hash] : pins) {
        io::LoadedProblem problem = io::loadProblem(dataFile(name));
        EXPECT_EQ(io::hashToHex(problem.contentHash), io::hashToHex(hash))
            << name;
        EXPECT_EQ(io::majoranaContentHash(problem.poly), hash) << name;
    }
}

TEST(Serialize, RejectsMalformedDocuments)
{
    // Envelope violations.
    EXPECT_THROW(io::treeFromJson(JsonValue::parse("{}")), ParseError);
    EXPECT_THROW(io::treeFromJson(JsonValue::parse(
                     R"({"format":"hatt-mapping","version":1})")),
                 ParseError);
    EXPECT_THROW(io::treeFromJson(JsonValue::parse(
                     R"({"format":"hatt-tree","version":99,)"
                     R"("num_modes":1,"internal":[[0,0,1,2]]})")),
                 ParseError);

    // Structural tree violations.
    const char *bad_trees[] = {
        // wrong internal count
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,2]]})",
        // duplicate children
        R"({"format":"hatt-tree","version":1,"num_modes":1,)"
        R"("internal":[[0,0,0,2]]})",
        // child id out of range
        R"({"format":"hatt-tree","version":1,"num_modes":1,)"
        R"("internal":[[0,0,1,7]]})",
        // child that does not exist yet
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,6],[1,2,3,4]]})",
        // reused child (already has a parent)
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,2],[1,0,3,4]]})",
        // duplicate qubit index across internal nodes
        R"({"format":"hatt-tree","version":1,"num_modes":2,)"
        R"("internal":[[0,0,1,2],[0,5,3,4]]})",
        // malformed entry
        R"({"format":"hatt-tree","version":1,"num_modes":1,)"
        R"("internal":[[0,0,1]]})",
    };
    for (const char *doc : bad_trees)
        EXPECT_THROW(io::treeFromJson(JsonValue::parse(doc)), ParseError)
            << doc;

    // Mapping violations: wrong term count, label garbage, label length.
    MajoranaPolynomial poly = randomMajoranaPolynomial(3, 6, 3);
    JsonValue good = io::mappingToJson(buildHattMapping(poly).mapping);
    std::string text = good.dump(2);
    EXPECT_NO_THROW(io::mappingFromJson(JsonValue::parse(text)));
    {
        std::string t = text;
        t.replace(t.find("\"num_modes\": 3"), 14, "\"num_modes\": 4");
        EXPECT_THROW(io::mappingFromJson(JsonValue::parse(t)),
                     ParseError);
    }
    {
        std::string t = text;
        size_t p = t.find("\"pauli\": \"");
        t[p + 10] = 'Q';
        EXPECT_THROW(io::mappingFromJson(JsonValue::parse(t)),
                     std::exception);
    }
}

// ------------------------------------------------------- streaming writer

std::string
slurpFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** What @p body writes through an in-memory JsonWriter. */
std::string
streamed(int indent, const std::function<void(JsonWriter &)> &body)
{
    JsonWriter w(indent);
    body(w);
    w.finish();
    return w.take();
}

/** A random complete tree over @p n modes: join three random roots
    until one remains, on shuffled qubits. */
TernaryTree
randomTree(uint32_t n, Rng &rng)
{
    TernaryTree tree(n);
    std::vector<int> roots(tree.numLeaves());
    std::iota(roots.begin(), roots.end(), 0);
    std::vector<int> qubits(n);
    std::iota(qubits.begin(), qubits.end(), 0);
    std::shuffle(qubits.begin(), qubits.end(), rng.engine());
    for (uint32_t i = 0; i < n; ++i) {
        int pick[3];
        for (int &p : pick) {
            const size_t k = rng.nextInt(roots.size());
            p = roots[k];
            roots.erase(roots.begin() + static_cast<ptrdiff_t>(k));
        }
        roots.push_back(tree.addInternal(qubits[i], pick[0], pick[1],
                                         pick[2]));
    }
    return tree;
}

/** Coefficients that stress the number format. */
constexpr double kEdgeNumbers[] = {
    -0.0, 0.0, 999999999999999.0, -999999999999999.0, 1e15, -1e15, 1e17,
    0.1, 1.0 / 3.0, -0.70710678118654757, 4.9406564584124654e-324,
    1.7976931348623157e308, 123456.5};

PauliSum
randomPauliSum(uint32_t n, size_t terms, Rng &rng)
{
    PauliSum sum(n);
    for (size_t t = 0; t < terms; ++t) {
        PauliString s(n);
        for (uint32_t q = 0; q < n; ++q)
            s.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
        auto pick = [&] {
            return rng.chance(0.5)
                       ? kEdgeNumbers[rng.nextInt(std::size(kEdgeNumbers))]
                       : rng.nextGaussian();
        };
        const double re = pick();
        sum.add(cplx(re, pick()), s);
    }
    return sum;
}

TEST(JsonWriter, NumbersAndEscapesMatchTheDocumentedFormat)
{
    const std::pair<double, const char *> numbers[] = {
        {0.0, "0"},
        {-0.0, "-0"},
        {999999999999999.0, "999999999999999"},
        {-999999999999999.0, "-999999999999999"},
        {1e15, "1000000000000000"},
        {1e17, "1e+17"},
        {0.1, "0.10000000000000001"},
        {1.0 / 3.0, "0.33333333333333331"},
        {123456.5, "123456.5"},
        {4.9406564584124654e-324, "4.9406564584124654e-324"},
        {1.7976931348623157e308, "1.7976931348623157e+308"}};
    for (const auto &[value, text] : numbers)
        EXPECT_EQ(streamed(-1, [&](JsonWriter &w) { w.number(value); }),
                  text);
    EXPECT_EQ(streamed(-1,
                       [](JsonWriter &w) {
                           w.string("q\"b\\c\n\x01\x1f\t\b\f\r\x7f");
                       }),
              "\"q\\\"b\\\\c\\n\\u0001\\u001f\\t\\b\\f\\r\x7f\"");
    EXPECT_THROW(streamed(-1,
                          [](JsonWriter &w) {
                              w.number(std::numeric_limits<double>::infinity());
                          }),
                 std::domain_error);
}

TEST(JsonWriter, PinnedLayoutOfASmallDocument)
{
    PauliSum sum(2);
    sum.add(cplx(0.5, -0.0), PauliString::fromLabel("XZ"));
    EXPECT_EQ(streamed(2,
                       [&](JsonWriter &w) { io::writePauliSumJson(w, sum); }),
              "{\n"
              "  \"format\": \"hatt-pauli-sum\",\n"
              "  \"version\": 1,\n"
              "  \"num_qubits\": 2,\n"
              "  \"terms\": [\n"
              "    {\n"
              "      \"coeff\": [\n"
              "        0.5,\n"
              "        -0\n"
              "      ],\n"
              "      \"pauli\": \"XZ\"\n"
              "    }\n"
              "  ]\n"
              "}\n");
    EXPECT_EQ(streamed(-1, [&](JsonWriter &w) {
                  io::writePauliSumJson(w, PauliSum(3));
              }),
              R"({"format":"hatt-pauli-sum","version":1,"num_qubits":3,)"
              R"("terms":[]})");
}

TEST(JsonWriter, StreamingEncodersEqualTheReferenceDocuments)
{
    fs::path dir = scratchDir("writer");
    Rng rng(2409);
    for (uint32_t n : {1u, 4u, 63u, 64u, 65u, 968u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const TernaryTree tree = randomTree(n, rng);
        FermionQubitMapping map =
            mappingFromTree(tree, "tree \"q\\\" \n\t\x01 name");
        map.majorana[0].coeff = cplx(kEdgeNumbers[0], kEdgeNumbers[2]);
        const PauliSum sum = randomPauliSum(n, n < 100 ? 40 : 8, rng);

        const PauliSum empty(n);

        const JsonValue tree_doc = io::treeToJson(tree);
        const JsonValue map_doc = io::mappingToJson(map);
        const JsonValue sum_doc = io::pauliSumToJson(sum);
        for (int indent : {2, -1}) {
            EXPECT_EQ(streamed(indent,
                               [&](JsonWriter &w) {
                                   io::writePauliSumJson(w, empty);
                               }),
                      io::pauliSumToJson(empty).dump(indent));
            EXPECT_EQ(streamed(indent,
                               [&](JsonWriter &w) {
                                   io::writeTreeJson(w, tree);
                               }),
                      tree_doc.dump(indent));
            EXPECT_EQ(streamed(indent,
                               [&](JsonWriter &w) {
                                   io::writeMappingJson(w, map);
                               }),
                      map_doc.dump(indent));
            EXPECT_EQ(streamed(indent,
                               [&](JsonWriter &w) {
                                   io::writePauliSumJson(w, sum);
                               }),
                      sum_doc.dump(indent));
        }

        // Through the fd-backed buffer, which the 968-qubit sum
        // overflows many times over.
        const fs::path path = dir / "sum.json";
        io::publishJsonFile(path.string(), [&](JsonWriter &w) {
            io::writePauliSumJson(w, sum);
        });
        EXPECT_EQ(slurpFile(path), sum_doc.dump(2));
        io::saveJsonFile(path.string(), map_doc);
        EXPECT_EQ(slurpFile(path), map_doc.dump(2));

        // The cache entry streams its nested mapping and tree.
        io::MappingCache cache((dir / "cache").string());
        cache.store(0xabcdef0123456789ull ^ n, "hatt", map, &tree,
                    uint64_t{n} * 7);
        JsonValue entry = JsonValue::object();
        entry.add("format", "hatt-cache");
        entry.add("version", 1);
        entry.add("content_hash", io::hashToHex(0xabcdef0123456789ull ^ n));
        entry.add("kind", "hatt");
        entry.add("mapping", map_doc);
        entry.add("tree", tree_doc);
        entry.add("candidates", uint64_t{n} * 7);
        EXPECT_EQ(slurpFile(cache.entryPath(0xabcdef0123456789ull ^ n,
                                            "hatt")),
                  entry.dump(2));
    }
    fs::remove_all(dir);
}

TEST(JsonWriter, NonFiniteCoefficientThrowsAndLeavesNoFile)
{
    fs::path dir = scratchDir("writer_nan");
    PauliSum sum(3);
    sum.add(cplx(1.0, 0.0), PauliString::fromLabel("XYZ"));
    sum.add(cplx(std::nan(""), 0.0), PauliString::fromLabel("ZZI"));
    const fs::path path = dir / "bad.qubit.json";
    EXPECT_THROW(io::publishJsonFile(path.string(),
                                     [&](JsonWriter &w) {
                                         io::writePauliSumJson(w, sum);
                                     }),
                 ParseError);
    EXPECT_THROW(io::pauliSumToJson(sum).dump(2), ParseError);
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

// ----------------------------------------------------------------- cache

TEST(Cache, StoresAndRecoversMappingsByContentHash)
{
    fs::path dir = scratchDir("cache");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    io::MappingCache cache(dir.string());

    EXPECT_FALSE(cache.load(hash, "hatt").has_value());

    HattResult res = buildHattMapping(poly);
    cache.store(hash, "hatt", res.mapping, &res.tree);

    auto hit = cache.load(hash, "hatt");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(stringsHash(hit->mapping), stringsHash(res.mapping));
    ASSERT_TRUE(hit->tree.has_value());
    EXPECT_EQ(hit->tree->numNodes(), res.tree.numNodes());

    EXPECT_FALSE(cache.load(hash ^ 1, "hatt").has_value());
    EXPECT_FALSE(cache.load(hash, "jw").has_value());
    fs::remove_all(dir);
}

TEST(Cache, CorruptEntriesAreMissesAndGetOverwritten)
{
    fs::path dir = scratchDir("cache_corrupt");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    io::MappingCache cache(dir.string());

    HattResult res = buildHattMapping(poly);
    cache.store(hash, "hatt", res.mapping, &res.tree);
    const std::string entry = cache.entryPath(hash, "hatt");

    // Truncate the entry mid-document, as an interrupted writer (or a
    // torn copy) would leave it: must be a miss, not a ParseError that
    // kills a whole `hattc --cache` batch.
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "{\"format\": \"hatt-cache\"";
    }
    EXPECT_FALSE(cache.load(hash, "hatt").has_value());

    // Recompute-and-store overwrites the damaged file; lookups hit again.
    cache.store(hash, "hatt", res.mapping, &res.tree);
    auto hit = cache.load(hash, "hatt");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(stringsHash(hit->mapping), stringsHash(res.mapping));

    // A syntactically valid entry whose key fields disagree with its
    // file name (e.g. a hand-copied file) is likewise a miss.
    {
        io::JsonValue doc = io::loadJsonFile(entry);
        std::string text = doc.dump(2);
        const std::string hex = io::hashToHex(hash);
        size_t p = text.find(hex);
        ASSERT_NE(p, std::string::npos);
        text[p] = text[p] == '0' ? '1' : '0';
        std::ofstream os(entry, std::ios::trunc);
        os << text;
    }
    EXPECT_FALSE(cache.load(hash, "hatt").has_value());

    // Garbage that parses as JSON but not as a mapping: miss, not crash.
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "{\"format\": \"hatt-cache\", \"version\": 1}";
    }
    EXPECT_FALSE(cache.load(hash, "hatt").has_value());
    fs::remove_all(dir);
}

/** An entry file's mtime in unix seconds, as stat(2) reports it. */
int64_t
mtimeOf(const fs::path &path)
{
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<int64_t>(st.st_mtime);
}

TEST(Cache, ScanEntriesListsEntryFilesWithSizeAndMtime)
{
    fs::path dir = scratchDir("cache_scan");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    io::MappingCache cache(dir.string());
    HattResult res = buildHattMapping(poly);

    cache.store(hash, "hatt", res.mapping, &res.tree);
    cache.store(hash, "jw", jordanWignerMapping(poly.numModes()));
    // Neither a legacy index, writer debris nor a bystander is an entry.
    for (const char *name : {"index.json", "notes.json",
                             "deadbeefdeadbeef-hatt.json.tmp.1.2"})
        std::ofstream(dir / name) << "{}";
    // A backdated entry lists its backdated time.
    fs::last_write_time(cache.entryPath(hash, "jw"),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(5));

    std::vector<io::CacheEntryFile> entries = cache.scanEntries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_LT(entries[0].file, entries[1].file); // sorted by file name
    for (const io::CacheEntryFile &e : entries) {
        EXPECT_EQ(e.size, fs::file_size(dir / e.file));
        EXPECT_EQ(e.lastUsed, mtimeOf(dir / e.file));
    }
    const int64_t now = static_cast<int64_t>(std::time(nullptr));
    EXPECT_NEAR(static_cast<double>(mtimeOf(cache.entryPath(hash, "jw"))),
                static_cast<double>(now - 5 * 3600), 60.0);

    // An entry removed behind the cache's back simply stops listing.
    fs::remove(cache.entryPath(hash, "jw"));
    ASSERT_EQ(cache.scanEntries().size(), 1u);
    EXPECT_EQ(cache.scanEntries()[0].file,
              fs::path(cache.entryPath(hash, "hatt")).filename().string());
    fs::remove_all(dir);
}

TEST(Cache, DiskHitRefreshesLastUsed)
{
    fs::path dir = scratchDir("cache_hit_mtime");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    HattResult res = buildHattMapping(poly);
    const auto now = fs::file_time_type::clock::now();

    // hatt is fresh; jw is the oldest entry and bk the next oldest, so
    // without the hit's refresh both policies would pick jw first.
    auto populate = [&](io::MappingCache &cache) {
        cache.store(hash, "hatt", res.mapping, &res.tree);
        cache.store(hash, "jw", jordanWignerMapping(poly.numModes()));
        cache.store(hash, "bk", bravyiKitaevMapping(poly.numModes()));
        fs::last_write_time(cache.entryPath(hash, "jw"),
                            now - std::chrono::hours(3));
        fs::last_write_time(cache.entryPath(hash, "bk"),
                            now - std::chrono::hours(2));
        ASSERT_TRUE(cache.load(hash, "jw").has_value());
    };

    // Age: the hit made jw recent, so only bk is stale.
    {
        io::MappingCache cache(dir.string());
        populate(cache);
        io::CacheGcOptions age;
        age.maxAgeSeconds = 3600;
        io::CacheGcStats stats = cache.gc(age);
        EXPECT_EQ(stats.evicted, 1u);
        EXPECT_TRUE(fs::exists(cache.entryPath(hash, "hatt")));
        EXPECT_TRUE(fs::exists(cache.entryPath(hash, "jw")));
        EXPECT_FALSE(fs::exists(cache.entryPath(hash, "bk")));
    }

    // LRU: a budget one byte short of the total evicts exactly the
    // least recently used entry, which is bk, not the hit jw.
    {
        io::MappingCache cache(dir.string());
        populate(cache);
        uint64_t total = 0;
        for (const io::CacheEntryFile &e : cache.scanEntries())
            total += e.size;
        io::CacheGcOptions lru;
        lru.maxBytes = total - 1;
        io::CacheGcStats stats = cache.gc(lru);
        EXPECT_EQ(stats.evicted, 1u);
        EXPECT_TRUE(fs::exists(cache.entryPath(hash, "hatt")));
        EXPECT_TRUE(fs::exists(cache.entryPath(hash, "jw")));
        EXPECT_FALSE(fs::exists(cache.entryPath(hash, "bk")));
    }
    fs::remove_all(dir);
}

TEST(Cache, GcEvictsByAgeThenLruSizeAndSweepsDebris)
{
    fs::path dir = scratchDir("cache_gc");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    HattResult res = buildHattMapping(poly);
    {
        // Populate from a separate instance, as a separate `hattc cache
        // gc` process would see the directory.
        io::MappingCache writer(dir.string());
        writer.store(hash, "hatt", res.mapping, &res.tree);
        writer.store(hash, "jw", jordanWignerMapping(poly.numModes()));
        writer.store(hash, "bk", bravyiKitaevMapping(poly.numModes()));
    }
    // The usage index older builds kept is superseded: gc removes it.
    const fs::path legacy_index = dir / "index.json";
    std::ofstream(legacy_index) << "{\"format\": \"hatt-cache-index\"}";

    // Bystander files that merely end in .json — a report dropped into
    // the cache dir, or a mistargeted `cache gc out/` — are never
    // treated as entries, and above all never deleted.
    const fs::path bystander = dir / "precious_results.json";
    {
        std::ofstream os(bystander);
        os << "{\"mine\": true}";
    }

    // Backdate two entries; a max-age pass must evict exactly those and
    // leave exactly the survivor.
    const auto old_time =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    io::MappingCache cache(dir.string());
    fs::last_write_time(cache.entryPath(hash, "jw"), old_time);
    fs::last_write_time(cache.entryPath(hash, "bk"), old_time);

    io::CacheGcOptions age_only;
    age_only.maxAgeSeconds = 3600;
    io::CacheGcStats stats = cache.gc(age_only);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_FALSE(fs::exists(cache.entryPath(hash, "jw")));
    EXPECT_FALSE(fs::exists(cache.entryPath(hash, "bk")));
    EXPECT_TRUE(cache.load(hash, "hatt").has_value());
    ASSERT_EQ(cache.scanEntries().size(), 1u);
    EXPECT_FALSE(fs::exists(legacy_index));

    // Byte budget: oldest last-used evicts first (LRU); with one entry
    // a zero budget empties the cache.
    io::CacheGcOptions size_only;
    size_only.maxBytes = 0;
    stats = cache.gc(size_only);
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_EQ(stats.bytesAfter, 0u);
    EXPECT_TRUE(cache.scanEntries().empty());
    EXPECT_FALSE(cache.load(hash, "hatt").has_value());

    // Even evict-everything passes leave the bystander untouched.
    EXPECT_TRUE(fs::exists(bystander));

    // Stale temp files from interrupted cache writers (and from older
    // builds' index writers) are crash debris; a user's "*.tmp.*" file
    // that doesn't match the writer pattern
    // (<16-hex>-<kind>.json.tmp.<pid>.<counter>) is not.
    const fs::path stale_tmp =
        dir / "deadbeefdeadbeef-hatt.json.tmp.1.2";
    const fs::path stale_index_tmp = dir / "index.json.tmp.3.4";
    const fs::path user_tmp = dir / "results.tmp.backup";
    for (const fs::path &p : {stale_tmp, stale_index_tmp, user_tmp}) {
        std::ofstream os(p);
        os << "partial";
        os.close();
        fs::last_write_time(p, old_time);
    }
    cache.gc(io::CacheGcOptions{});
    EXPECT_FALSE(fs::exists(stale_tmp));
    EXPECT_FALSE(fs::exists(stale_index_tmp));
    EXPECT_TRUE(fs::exists(user_tmp));
    fs::remove_all(dir);
}

TEST(Cache, GcHonorsInjectedNowForAgePolicies)
{
    fs::path dir = scratchDir("cache_gc_now");
    MajoranaPolynomial poly = MajoranaPolynomial::fromFermion(
        hubbardModel({2, 2, 1.0, 4.0}));
    uint64_t hash = io::majoranaContentHash(poly);
    HattResult res = buildHattMapping(poly);
    io::MappingCache cache(dir.string());
    cache.store(hash, "hatt", res.mapping, &res.tree);

    // From one day in the future everything is stale; from now, nothing.
    io::CacheGcOptions not_yet;
    not_yet.maxAgeSeconds = 86400 * 7;
    EXPECT_EQ(cache.gc(not_yet).evicted, 0u);
    ASSERT_TRUE(cache.load(hash, "hatt").has_value());

    io::CacheGcOptions future;
    future.maxAgeSeconds = 3600;
    future.now = static_cast<int64_t>(std::time(nullptr)) + 86400;
    EXPECT_EQ(cache.gc(future).evicted, 1u);
    EXPECT_FALSE(cache.load(hash, "hatt").has_value());
    EXPECT_TRUE(cache.scanEntries().empty());
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
