/**
 * @file
 * Google-benchmark microbenchmarks of the hot substrate operations:
 * Pauli string products, Majorana preprocessing (Hubbard terms and
 * FCIDUMP integrals), Hamiltonian mapping, and HATT construction.
 * Also emits BENCH_micro_pauli.json (fixed-repetition wall times for the
 * headline kernels) so the perf trajectory is tracked across PRs.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "bench_common.hpp"
#include "chem/molecule.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/driver.hpp"
#include "io/fcidump.hpp"
#include "mapping/hatt.hpp"
#include "mapping/jordan_wigner.hpp"
#include "mapping/search.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"

namespace {

using namespace hatt;

PauliString
randomString(uint32_t n, Rng &rng)
{
    PauliString s(n);
    for (uint32_t q = 0; q < n; ++q)
        s.setOp(q, static_cast<PauliOp>(rng.nextInt(4)));
    return s;
}

void
BM_PauliMultiply(benchmark::State &state)
{
    Rng rng(1);
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    PauliString a = randomString(n, rng);
    PauliString b = randomString(n, rng);
    for (auto _ : state) {
        auto [c, phase] = PauliString::multiply(a, b);
        benchmark::DoNotOptimize(c);
        benchmark::DoNotOptimize(phase);
    }
}
BENCHMARK(BM_PauliMultiply)->Arg(16)->Arg(64)->Arg(256);

void
BM_PauliWeight(benchmark::State &state)
{
    Rng rng(2);
    PauliString a =
        randomString(static_cast<uint32_t>(state.range(0)), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.weight());
}
BENCHMARK(BM_PauliWeight)->Arg(64)->Arg(512);

void
BM_MajoranaPreprocess(benchmark::State &state)
{
    HubbardParams params;
    params.rows = 2;
    params.cols = static_cast<uint32_t>(state.range(0));
    FermionHamiltonian hf = hubbardModel(params);
    for (auto _ : state)
        benchmark::DoNotOptimize(MajoranaPolynomial::fromFermion(hf));
}
BENCHMARK(BM_MajoranaPreprocess)->Arg(2)->Arg(4)->Arg(8);

void
BM_MapToQubitsJw(benchmark::State &state)
{
    HubbardParams params;
    params.rows = 2;
    params.cols = static_cast<uint32_t>(state.range(0));
    MajoranaPolynomial poly =
        MajoranaPolynomial::fromFermion(hubbardModel(params));
    FermionQubitMapping jw = jordanWignerMapping(poly.numModes());
    for (auto _ : state)
        benchmark::DoNotOptimize(mapToQubits(poly, jw));
}
BENCHMARK(BM_MapToQubitsJw)->Arg(2)->Arg(4)->Arg(8);

void
BM_HattBuild(benchmark::State &state)
{
    MajoranaPolynomial poly =
        majoranaChain(static_cast<uint32_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(buildHattMapping(poly));
}
BENCHMARK(BM_HattBuild)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

/** Fixed-workload wall times for the JSON perf log. */
void
writeJsonLog()
{
    bench::JsonReporter json("micro_pauli");

    {
        Rng rng(3);
        PauliString a = randomString(64, rng);
        PauliString b = randomString(64, rng);
        constexpr int reps = 2'000'000;
        Timer t;
        uint64_t sink = 0;
        for (int i = 0; i < reps; ++i) {
            auto [c, phase] = PauliString::multiply(a, b);
            sink += c.weight() + static_cast<uint64_t>(phase);
        }
        benchmark::DoNotOptimize(sink);
        json.add("pauli_multiply_64q_x" + std::to_string(reps),
                 t.seconds());

        // Same workload with a disarmed trace::Span per iteration: the
        // twin record pins the observability contract that an unarmed
        // span costs one relaxed atomic load — the two records must
        // stay within each other's run-to-run noise.
        Timer t2;
        uint64_t sink2 = 0;
        for (int i = 0; i < reps; ++i) {
            trace::Span span("bench", "pauli_multiply");
            auto [c, phase] = PauliString::multiply(a, b);
            sink2 += c.weight() + static_cast<uint64_t>(phase);
        }
        benchmark::DoNotOptimize(sink2);
        json.add("pauli_multiply_64q_span_x" + std::to_string(reps),
                 t2.seconds());
    }

    {
        // The preprocess layer of a compile request: the streaming
        // accumulator over the e2ebench 22x22 (968-mode) Hubbard lattice,
        // its term list built once outside the timer.
        const FermionHamiltonian hf = hubbardModel({22, 22, 1.0, 4.0});
        constexpr int reps = 20;
        size_t monomials = 0;
        Timer t;
        for (int i = 0; i < reps; ++i) {
            StreamingMajoranaAccumulator acc(hf.numModes());
            for (const FermionTerm &term : hf.terms())
                acc.add(term);
            monomials += acc.finish().size();
        }
        benchmark::DoNotOptimize(monomials);
        json.add("majorana_preprocess_hub22x22_x" + std::to_string(reps),
                 t.seconds());
    }

    {
        // The parse + preprocess layers of a molecule request: CH4
        // STO-3G (18 modes) written once with writeFcidump, then loaded
        // by loadProblem (read, integrals -> Majorana monomials, finish,
        // content hash) on every pass.
        const std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("hatt_bench_ch4_" + std::to_string(::getpid()) + ".fcidump");
        {
            std::ofstream out(path);
            io::writeFcidump(
                out, buildMolecule({"CH4", BasisSet::Sto3g, false, 0})
                         .integrals);
        }
        constexpr int reps = 20;
        size_t monomials = 0;
        Timer t;
        for (int i = 0; i < reps; ++i)
            monomials += io::loadProblem(path.string()).poly.size();
        benchmark::DoNotOptimize(monomials);
        json.add("fcidump_preprocess_ch4_x" + std::to_string(reps),
                 t.seconds());
        std::filesystem::remove(path);
    }

    for (uint32_t n : {64u, 128u}) {
        MajoranaPolynomial poly = majoranaChain(n);
        Timer t;
        HattResult res = buildHattMapping(poly);
        json.add("hatt_build_chain" + std::to_string(n), t.seconds(),
                 res.stats.predictedWeight, res.stats.candidatesEvaluated);

        HattOptions unopt;
        unopt.algorithm = HattAlgorithm::Unpaired;
        Timer t2;
        HattResult res2 = buildHattMapping(poly, unopt);
        json.add("hatt_unopt_build_chain" + std::to_string(n), t2.seconds(),
                 res2.stats.predictedWeight,
                 res2.stats.candidatesEvaluated);
    }

    {
        MajoranaPolynomial poly =
            MajoranaPolynomial::fromFermion(hubbardModel({2, 8, 1.0, 4.0}));
        Timer t;
        SearchResult res = stochasticTreeSearch(poly, 4, 20, 2024);
        json.add("stochastic_search_hub2x8", t.seconds(), res.weight,
                 res.evaluated);
    }

    std::cout << "wrote " << json.write() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeJsonLog();
    return 0;
}
