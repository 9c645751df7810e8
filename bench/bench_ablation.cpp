/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out:
 *  (a) descZ caching (Algorithm 3) on/off: identical mappings, different
 *      construction time;
 *  (b) vacuum pairing (Algorithm 2) on/off: Pauli-weight cost of the
 *      vacuum-preservation constraint;
 *  (c) term scheduling: none / lexicographic / greedy-overlap CNOTs;
 *  (d) CNOT ladder style: chain vs star after optimization.
 */

#include "bench_common.hpp"
#include "mapping/hatt.hpp"
#include "models/chains.hpp"
#include "models/hubbard.hpp"
#include "models/neutrino.hpp"

using namespace hatt;
using namespace hatt::bench;

int
main()
{
    std::cout << "=== Ablation (a): descZ cache construction time ===\n";
    {
        TablePrinter table({"Modes", "walk (s)", "cached (s)",
                            "identical output"});
        for (uint32_t n : {32u, 64u, 96u, 128u}) {
            MajoranaPolynomial poly = majoranaChain(n);
            HattOptions walk{HattAlgorithm::Walked};
            Timer t1;
            HattResult a = buildHattMapping(poly, walk);
            double walk_s = t1.seconds();
            Timer t2;
            HattResult b = buildHattMapping(poly);
            double cache_s = t2.seconds();
            bool same = true;
            for (size_t i = 0; i < a.mapping.majorana.size(); ++i)
                same &= a.mapping.majorana[i].string ==
                        b.mapping.majorana[i].string;
            table.addRow({std::to_string(poly.numModes()),
                          TablePrinter::num(walk_s, 5),
                          TablePrinter::num(cache_s, 5),
                          same ? "yes" : "NO"});
        }
        table.print(std::cout);
    }

    std::cout << "\n=== Ablation (b): vacuum pairing weight cost ===\n";
    {
        TablePrinter table({"Case", "free triples", "paired (vacuum)",
                            "cost %"});
        const std::pair<uint32_t, uint32_t> geoms[] = {
            {2, 2}, {2, 3}, {3, 3}, {2, 5}};
        for (auto [r, c] : geoms) {
            HubbardParams params;
            params.rows = r;
            params.cols = c;
            MajoranaPolynomial poly =
                MajoranaPolynomial::fromFermion(hubbardModel(params));
            uint64_t free_w =
                compileMetrics(poly, buildMapping("HATT-unopt", poly),
                               ScheduleKind::None, false)
                    .pauliWeight;
            uint64_t paired_w =
                compileMetrics(poly, buildMapping("HATT", poly),
                               ScheduleKind::None, false)
                    .pauliWeight;
            double cost = free_w == 0 ? 0.0
                                      : 100.0 *
                                            (static_cast<double>(paired_w) -
                                             static_cast<double>(free_w)) /
                                            static_cast<double>(free_w);
            table.addRow({std::to_string(r) + "x" + std::to_string(c),
                          TablePrinter::num(
                              static_cast<long long>(free_w)),
                          TablePrinter::num(
                              static_cast<long long>(paired_w)),
                          TablePrinter::num(cost, 2)});
        }
        table.print(std::cout);
    }

    std::cout << "\n=== Ablation (c): term scheduling (CNOT count) ===\n";
    {
        TablePrinter table({"Case", "none", "lexicographic", "greedy"});
        NeutrinoParams np;
        np.sites = 3;
        np.flavors = 2;
        MajoranaPolynomial poly =
            MajoranaPolynomial::fromFermion(neutrinoModel(np));
        FermionQubitMapping map = buildMapping("HATT", poly);
        uint64_t none =
            compileMetrics(poly, map, ScheduleKind::None).cnot;
        uint64_t lex =
            compileMetrics(poly, map, ScheduleKind::Lexicographic).cnot;
        uint64_t greedy =
            compileMetrics(poly, map, ScheduleKind::GreedyOverlap).cnot;
        table.addRow({"neutrino 3x2F",
                      TablePrinter::num(static_cast<long long>(none)),
                      TablePrinter::num(static_cast<long long>(lex)),
                      TablePrinter::num(static_cast<long long>(greedy))});
        table.print(std::cout);
    }

    std::cout << "\n=== Ablation (d): ladder style (CNOT count) ===\n";
    {
        TablePrinter table({"Case", "chain", "star"});
        HubbardParams params;
        params.rows = 2;
        params.cols = 4;
        MajoranaPolynomial poly =
            MajoranaPolynomial::fromFermion(hubbardModel(params));
        PauliSum hq = mapToQubits(poly, buildMapping("HATT", poly));
        PauliSum ordered =
            scheduleTerms(hq, ScheduleKind::Lexicographic);
        auto cnots = [&](LadderStyle style) {
            EvolutionOptions evo;
            evo.ladder = style;
            Circuit c = evolutionCircuit(ordered, evo);
            optimizeCircuit(c);
            return TablePrinter::num(
                static_cast<long long>(c.cnotCount()));
        };
        table.addRow({"hubbard 2x4", cnots(LadderStyle::Chain),
                      cnots(LadderStyle::Star)});
        table.print(std::cout);
    }
    return 0;
}
