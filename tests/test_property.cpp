/**
 * @file
 * Parameterized property tests: algebraic invariants that must hold for
 * every mapping family on every model, swept with TEST_P /
 * INSTANTIATE_TEST_SUITE_P.
 *
 * Invariants checked per (mapping, model) combination:
 *  - the 2N Majorana strings are pairwise anticommuting and distinct;
 *  - vacuum preservation for the families that promise it;
 *  - the mapped Hamiltonian has (near-)real coefficients (Hermiticity);
 *  - normalized trace powers tr(H^k)/2^N for k = 1..3 agree with the
 *    Jordan-Wigner reference (isospectrality witness);
 *  - the number of mapped terms equals the number of Majorana monomials
 *    (distinct monomials map to distinct strings).
 */

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <typeinfo>
#include <utility>

#include <gtest/gtest.h>

#include "chem/transform.hpp"
#include "common/rng.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/driver.hpp"
#include "io/fcidump.hpp"
#include "io/fermion_text.hpp"
#include "io/json.hpp"
#include "io/limits.hpp"
#include "mapping/balanced_tree.hpp"
#include "mapping/bravyi_kitaev.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/mapper.hpp"
#include "mapping/verify.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "models/neutrino.hpp"

namespace hatt {
namespace {

enum class Model { Hubbard22, Hubbard13, Neutrino22, Random6, Random8 };

MajoranaPolynomial
buildModel(Model model)
{
    switch (model) {
      case Model::Hubbard22:
        return MajoranaPolynomial::fromFermion(
            hubbardModel({2, 2, 1.0, 4.0}));
      case Model::Hubbard13:
        return MajoranaPolynomial::fromFermion(
            hubbardModel({1, 3, 1.0, 4.0}));
      case Model::Neutrino22:
        return MajoranaPolynomial::fromFermion(neutrinoModel({2, 2, 0.1}));
      case Model::Random6:
        return randomMajoranaPolynomial(6, 18, 6006);
      case Model::Random8:
      default:
        return randomMajoranaPolynomial(8, 30, 8008);
    }
}

const char *
modelName(Model model)
{
    switch (model) {
      case Model::Hubbard22: return "Hubbard22";
      case Model::Hubbard13: return "Hubbard13";
      case Model::Neutrino22: return "Neutrino22";
      case Model::Random6: return "Random6";
      case Model::Random8: return "Random8";
    }
    return "?";
}

FermionQubitMapping
buildKind(const std::string &kind, const MajoranaPolynomial &poly)
{
    MappingRequest req;
    req.kind = kind;
    req.poly = &poly;
    return MapperRegistry::instance().build(req).value().mapping;
}

using Combo = std::tuple<std::string, Model>;

class MappingProperty : public ::testing::TestWithParam<Combo>
{
};

TEST_P(MappingProperty, ValidMajoranaAlgebra)
{
    auto [kind, model] = GetParam();
    MajoranaPolynomial poly = buildModel(model);
    FermionQubitMapping map = buildKind(kind, poly);
    MappingCheck check = verifyMapping(map);
    EXPECT_TRUE(check.valid) << check.reason;
}

TEST_P(MappingProperty, VacuumPreservationWherePromised)
{
    auto [kind, model] = GetParam();
    MajoranaPolynomial poly = buildModel(model);
    FermionQubitMapping map = buildKind(kind, poly);
    const Mapper *mapper = MapperRegistry::instance().find(kind);
    if (mapper->capabilities().vacuumPreserving) {
        EXPECT_TRUE(preservesVacuum(map)) << kind;
    }
}

TEST_P(MappingProperty, MappedHamiltonianIsHermitian)
{
    auto [kind, model] = GetParam();
    if (model == Model::Random6 || model == Model::Random8)
        GTEST_SKIP() << "random polynomials are not Hermitian";
    MajoranaPolynomial poly = buildModel(model);
    PauliSum hq = mapToQubits(poly, buildKind(kind, poly));
    EXPECT_LT(hq.maxImagCoeff(), 1e-8);
}

TEST_P(MappingProperty, TracePowersMatchJordanWigner)
{
    auto [kind, model] = GetParam();
    MajoranaPolynomial poly = buildModel(model);
    PauliSum hq = mapToQubits(poly, buildKind(kind, poly));
    PauliSum ref = mapToQubits(poly, jordanWignerMapping(poly.numModes()));
    for (int k = 1; k <= 3; ++k) {
        EXPECT_NEAR(std::abs(hq.normalizedTracePower(k) -
                             ref.normalizedTracePower(k)),
                    0.0, 1e-8)
            << "k=" << k;
    }
}

TEST_P(MappingProperty, DistinctMonomialsStayDistinct)
{
    auto [kind, model] = GetParam();
    MajoranaPolynomial poly = buildModel(model);
    size_t monomials = 0;
    for (const auto &t : poly.terms())
        if (!t.indices.empty())
            ++monomials;
    PauliSum hq = mapToQubits(poly, buildKind(kind, poly));
    EXPECT_EQ(hq.numNonIdentityTerms(), monomials);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MappingProperty,
    ::testing::Combine(
        ::testing::Values("jw", "bk", "btt", "hatt", "hatt-unopt"),
        ::testing::Values(Model::Hubbard22, Model::Hubbard13,
                          Model::Neutrino22, Model::Random6,
                          Model::Random8)),
    [](const ::testing::TestParamInfo<Combo> &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           modelName(std::get<1>(info.param));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** Seed sweep: HATT structural invariants on random polynomials. */
class HattSeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HattSeedSweep, PredictedWeightExact)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(7, 21, GetParam());
    HattResult res = buildHattMapping(poly);
    PauliSum hq = mapToQubits(poly, res.mapping);
    EXPECT_EQ(res.stats.predictedWeight, hq.pauliWeight());
}

TEST_P(HattSeedSweep, TreeIsCompleteAndVacuumPreserving)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(7, 21, GetParam());
    HattResult res = buildHattMapping(poly);
    EXPECT_TRUE(res.tree.isCompleteTree());
    EXPECT_TRUE(preservesVacuum(res.mapping));
    EXPECT_TRUE(verifyMapping(res.mapping).valid);
}

TEST_P(HattSeedSweep, NeverWorseThanWorstBaselineByMuch)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(7, 21, GetParam());
    HattResult res = buildHattMapping(poly);
    uint64_t hatt = mapToQubits(poly, res.mapping).pauliWeight();
    uint64_t jw =
        mapToQubits(poly, jordanWignerMapping(7)).pauliWeight();
    uint64_t btt =
        mapToQubits(poly, balancedTernaryTreeMapping(7)).pauliWeight();
    // Greedy should never exceed the max of the fixed baselines: it can
    // at least match per-qubit decisions of a fixed tree shape.
    EXPECT_LE(hatt, std::max(jw, btt));
}

TEST_P(HattSeedSweep, WalkAndCacheAgree)
{
    MajoranaPolynomial poly = randomMajoranaPolynomial(6, 15, GetParam());
    HattResult cached = buildHattMapping(poly, {HattAlgorithm::Cached});
    HattResult walked = buildHattMapping(poly, {HattAlgorithm::Walked});
    ASSERT_EQ(cached.mapping.majorana.size(),
              walked.mapping.majorana.size());
    for (size_t i = 0; i < cached.mapping.majorana.size(); ++i)
        EXPECT_EQ(cached.mapping.majorana[i].string,
                  walked.mapping.majorana[i].string);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HattSeedSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

/** Mode-count sweep: every family stays valid as N grows. */
class SizeSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(SizeSweep, ChainMappingsValidAtEverySize)
{
    const uint32_t n = GetParam();
    MajoranaPolynomial poly = majoranaChain(n);
    EXPECT_TRUE(verifyMapping(jordanWignerMapping(n)).valid);
    EXPECT_TRUE(verifyMapping(bravyiKitaevMapping(n)).valid);
    EXPECT_TRUE(verifyMapping(balancedTernaryTreeMapping(n)).valid);
    HattResult res = buildHattMapping(poly);
    EXPECT_TRUE(verifyMapping(res.mapping).valid);
    EXPECT_TRUE(preservesVacuum(res.mapping));
    // Chain Hamiltonian: every Majorana appears once, so the weight is
    // the summed operator weight; the balanced tree is optimal at
    // ~log3 per string and HATT must land at or below BTT here.
    uint64_t hatt_w = mapToQubits(poly, res.mapping).pauliWeight();
    uint64_t btt_w =
        mapToQubits(poly, balancedTernaryTreeMapping(n)).pauliWeight();
    EXPECT_LE(hatt_w, btt_w);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 9u,
                                           12u, 16u, 21u, 27u));

// ------------------------------------------------ FCIDUMP preprocessing
//
// addIntegralMonomials (the FCIDUMP path of loadProblem) against the
// general path it replaces, fromFermion(secondQuantize(mo)), on seeded
// random real-orbital integrals.

/** Seeded integrals with the FCIDUMP symmetries (h_pq = h_qp, the
    8-fold (pq|rs) class written whole, as parseFcidump does). Values
    mix exact zeros, a few repeated values, random ones and entries on
    either side of the 1e-10 integral cutoff. */
MoIntegrals
randomIntegrals(uint32_t n, Rng &rng, bool diagonal_one_body, double core)
{
    const double pool[] = {0.0,     0.0,   0.25,  -0.375,
                           0.5e-10, 2e-10, -2e-10};
    auto draw = [&] {
        const uint64_t k = rng.nextInt(std::size(pool) + 3);
        return k < std::size(pool) ? pool[k] : rng.nextDouble() - 0.5;
    };
    MoIntegrals mo;
    mo.numOrbitals = n;
    mo.coreEnergy = core;
    mo.oneBody = RealMatrix(n, n);
    mo.twoBody = EriTensor(n);
    for (uint32_t p = 0; p < n; ++p)
        for (uint32_t q = 0; q <= p; ++q)
            if (p == q || !diagonal_one_body)
                mo.oneBody(p, q) = mo.oneBody(q, p) = draw();
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t j = 0; j < n; ++j)
            for (uint32_t k = 0; k < n; ++k)
                for (uint32_t l = 0; l < n; ++l) {
                    if (i < j || k < l ||
                        std::pair(i, j) < std::pair(k, l))
                        continue; // one representative per class
                    const double v = draw();
                    for (auto [a, b, c, d] :
                         {std::array{i, j, k, l}, std::array{j, i, k, l},
                          std::array{i, j, l, k}, std::array{j, i, l, k},
                          std::array{k, l, i, j}, std::array{l, k, i, j},
                          std::array{k, l, j, i}, std::array{l, k, j, i}})
                        mo.twoBody.at(a, b, c, d) = v;
                }
    return mo;
}

TEST(FcidumpPreprocess, RandomIntegralsMatchSecondQuantizeOracle)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const uint32_t n = 1 + static_cast<uint32_t>(seed % 5);
        const bool diagonal = seed % 4 == 0;
        const double core = seed % 3 == 0 ? 0.0 : rng.nextDouble() - 0.5;
        const MoIntegrals mo = randomIntegrals(n, rng, diagonal, core);
        SCOPED_TRACE("seed " + std::to_string(seed));

        StreamingMajoranaAccumulator acc;
        const size_t terms = addIntegralMonomials(mo, acc);
        const MajoranaPolynomial got = acc.finish();
        const FermionHamiltonian hf = secondQuantize(mo);
        const MajoranaPolynomial want = MajoranaPolynomial::fromFermion(hf);

        EXPECT_EQ(terms, hf.size());
        EXPECT_EQ(got.numModes(), 2 * n);
        ASSERT_EQ(got.size(), want.size());
        std::map<std::vector<uint32_t>, cplx> coeffs;
        for (const MajoranaMonomial &t : want)
            coeffs.emplace(std::vector<uint32_t>(t.indices.begin(),
                                                 t.indices.end()),
                           t.coeff);
        for (const MajoranaMonomial &t : got) {
            auto it = coeffs.find(
                std::vector<uint32_t>(t.indices.begin(), t.indices.end()));
            ASSERT_NE(it, coeffs.end()) << t.toString();
            EXPECT_NEAR(t.coeff.real(), it->second.real(), 1e-14)
                << t.toString();
            EXPECT_NEAR(t.coeff.imag(), it->second.imag(), 1e-14)
                << t.toString();
        }
    }
}

// ------------------------------------------------------------------ fuzz
//
// Property-based corruption tests for the three input readers: take a
// valid document, damage it deterministically (truncation, byte flips,
// garbage splices, giant exponents, duplicate keys), and assert the
// parser either accepts the result or raises ParseError — never any
// other exception, unbounded allocation, or crash. Seeded: every
// failure reproduces from its iteration index. The default pass is a
// fixed iteration budget; set HATT_FUZZ_SECONDS to keep fuzzing on a
// wall-clock budget instead (the CI smoke job does).

/** splitmix64: tiny deterministic generator for the corruptions. */
struct FuzzRng
{
    uint64_t state;
    explicit FuzzRng(uint64_t seed) : state(seed) {}
    uint64_t next()
    {
        state += 0x9e3779b97f4a7c15ULL;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    size_t below(size_t n) { return n == 0 ? 0 : next() % n; }
};

/** One deterministic corruption of @p text, chosen by the rng. */
std::string
corrupt(const std::string &text, FuzzRng &rng)
{
    std::string s = text;
    switch (rng.below(6)) {
      case 0: // random truncation
        s.resize(rng.below(s.size() + 1));
        break;
      case 1: // byte flips
        for (int i = 0; i < 4 && !s.empty(); ++i)
            s[rng.below(s.size())] ^=
                static_cast<char>(1u << rng.below(8));
        break;
      case 2: // splice printable garbage
        s.insert(rng.below(s.size() + 1),
                 std::string(1 + rng.below(12),
                             static_cast<char>(' ' + rng.below(95))));
        break;
      case 3: { // giant exponent where a number might sit
        const char *huge = rng.below(2) ? "1e999999999" : "-9.9e-999999";
        s.insert(rng.below(s.size() + 1), huge);
        break;
      }
      case 4: // duplicate a random line (duplicate keys for JSON)
        if (size_t nl = s.find('\n'); nl != std::string::npos) {
            size_t start = rng.below(s.size());
            start = s.rfind('\n', start);
            start = start == std::string::npos ? 0 : start + 1;
            size_t end = s.find('\n', start);
            end = end == std::string::npos ? s.size() : end + 1;
            s.insert(start, s.substr(start, end - start));
        }
        break;
      case 5: // swap two random spans
        if (s.size() > 8) {
            size_t a = rng.below(s.size() / 2);
            size_t b = s.size() / 2 + rng.below(s.size() / 2 - 4);
            for (int i = 0; i < 4; ++i)
                std::swap(s[a + i], s[b + i]);
        }
        break;
    }
    return s;
}

/** Tight caps so even an "accepted" corruption stays tiny. */
io::ParseLimits
fuzzLimits()
{
    io::ParseLimits limits;
    limits.maxTerms = 4096;
    limits.maxModes = 256;
    limits.maxLineBytes = 1u << 12;
    limits.maxFileBytes = 1u << 16;
    return limits;
}

/** Iteration budget: fixed by default, wall-clock under
    HATT_FUZZ_SECONDS (used by the CI fuzz smoke job). */
template <typename Fn>
void
fuzzLoop(uint64_t seed, const std::string &valid, Fn &&attempt)
{
    double budget_seconds = 0.0;
    if (const char *env = std::getenv("HATT_FUZZ_SECONDS"))
        budget_seconds = std::atof(env);
    const auto start = std::chrono::steady_clock::now();
    const int fixed_iters = 400;
    for (int i = 0;; ++i) {
        if (budget_seconds > 0.0) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (elapsed >= budget_seconds)
                break;
        } else if (i >= fixed_iters) {
            break;
        }
        FuzzRng rng(seed ^ (0x5eedULL + static_cast<uint64_t>(i)));
        const std::string mutated = corrupt(valid, rng);
        try {
            attempt(mutated);
        } catch (const io::ParseError &) {
            // The clean rejection path: exactly what hostile input
            // must produce.
        } catch (const std::exception &e) {
            FAIL() << "iteration " << i << ": non-ParseError "
                   << typeid(e).name() << ": " << e.what()
                   << "\ninput:\n"
                   << mutated;
        }
    }
}

TEST(FuzzReaders, OpsReaderRejectsCorruptionCleanly)
{
    const std::string valid = "modes 4\n"
                              "0.5 [0^ 1]\n"
                              "-0.25 [2^ 3^ 3 2]\n"
                              "1.25e-3 [1^ 0]\n"
                              "0.75 []\n";
    // The seed parses before any corruption is applied.
    {
        std::istringstream in(valid);
        io::FermionTextInfo info = io::streamFermionText(
            in, [](FermionTerm &&) { return true; }, fuzzLimits());
        EXPECT_EQ(info.numModes, 4u);
        EXPECT_EQ(info.numTerms, 4u);
    }
    fuzzLoop(0x0905ULL, valid, [](const std::string &mutated) {
        std::istringstream in(mutated);
        io::streamFermionText(
            in, [](FermionTerm &&) { return true; }, fuzzLimits());
    });
}

TEST(FuzzReaders, FcidumpReaderRejectsCorruptionCleanly)
{
    const std::string valid = "&FCI NORB=2,NELEC=2,MS2=0,\n"
                              "  ORBSYM=1,1,\n"
                              "  ISYM=1,\n"
                              "&END\n"
                              " 0.675 1 1 1 1\n"
                              " 0.180 2 1 2 1\n"
                              " -1.256 1 1 0 0\n"
                              " 0.719 0 0 0 0\n";
    {
        std::istringstream in(valid);
        EXPECT_EQ(io::parseFcidump(in, fuzzLimits()).numOrbitals, 2u);
    }
    // Every accepted corruption also goes through loadProblem, so the
    // integral-to-monomial fold sees hostile integrals too; on small
    // files it is checked against the secondQuantize oracle. A spliced
    // digit can make an integral ~1e9, where the oracle's cancellations
    // leave ~1e-8 residues the closed form does not have, so monomial
    // sets are compared above a threshold relative to the largest
    // coefficient.
    auto significant = [](const MajoranaPolynomial &poly) {
        double scale = 1.0;
        for (const MajoranaMonomial &t : poly)
            scale = std::max(scale, std::abs(t.coeff));
        std::set<std::vector<uint32_t>> out;
        for (const MajoranaMonomial &t : poly)
            if (std::abs(t.coeff) > 1e-9 * scale)
                out.emplace(t.indices.begin(), t.indices.end());
        return out;
    };
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("hatt_fuzz_" + std::to_string(::getpid()) + ".fcidump");
    fuzzLoop(0xFC1DULL, valid, [&](const std::string &mutated) {
        std::istringstream in(mutated);
        const MoIntegrals mo = io::parseFcidump(in, fuzzLimits());
        std::ofstream(path) << mutated;
        const io::LoadedProblem loaded =
            io::loadProblem(path.string(), io::InputFormat::Fcidump,
                            fuzzLimits());
        EXPECT_EQ(loaded.numModes, 2 * mo.numOrbitals);
        if (mo.numOrbitals <= 4) {
            const FermionHamiltonian hf = secondQuantize(mo);
            EXPECT_EQ(loaded.fermionTerms, hf.size());
            EXPECT_EQ(significant(loaded.poly),
                      significant(MajoranaPolynomial::fromFermion(hf)))
                << mutated;
        }
    });
    std::filesystem::remove(path);
}

TEST(FuzzReaders, JsonReaderRejectsCorruptionCleanly)
{
    const std::string valid = "{\n"
                              "  \"format\": \"hatt-mapping\",\n"
                              "  \"version\": 1,\n"
                              "  \"num_modes\": 2,\n"
                              "  \"coeffs\": [1.0, -0.5, 2.5e-4],\n"
                              "  \"labels\": [\"XX\", \"YZ\", \"IZ\"],\n"
                              "  \"nested\": {\"a\": [true, false, null]}\n"
                              "}\n";
    EXPECT_EQ(io::JsonValue::parse(valid).at("num_modes").asInt(), 2);
    fuzzLoop(0x1500ULL, valid, [](const std::string &mutated) {
        // Byte cap mirrors loadJsonFile's guard on real files.
        if (mutated.size() > fuzzLimits().maxFileBytes)
            return;
        io::JsonValue doc = io::JsonValue::parse(mutated);
        // A mutation that still parses must also survive re-serialize
        // + re-parse (the round-trip half of the property).
        io::JsonValue again = io::JsonValue::parse(doc.dump(2));
        (void)again;
    });
}

} // namespace
} // namespace hatt
