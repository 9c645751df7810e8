#ifndef HATT_BENCH_BENCH_COMMON_HPP
#define HATT_BENCH_BENCH_COMMON_HPP

/**
 * @file
 * Shared harness code for the paper-reproduction benchmarks: builds each
 * mapping, maps the Hamiltonian, compiles the Trotter circuit through
 * the common pipeline (schedule -> synthesize -> peephole optimize) and
 * collects the metrics every table reports.
 */

#include <fstream>
#include <iostream>
#include <locale>
#include <optional>
#include <string>
#include <vector>

#include "circuit/optimize.hpp"
#include "circuit/pauli_evolution.hpp"
#include "circuit/schedule.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "mapping/mapper.hpp"
#include "mapping/search.hpp"

namespace hatt::bench {

/**
 * Machine-readable benchmark log: collects one record per measured
 * configuration and writes BENCH_<benchmark>.json in the working
 * directory, so the performance trajectory can be tracked across PRs.
 *
 * Schema: {"benchmark": "...", "records": [{"name": "...",
 * "seconds": w, "pauli_weight": n|null, "candidates": n|null}, ...]}.
 * Device-aware benchmarks add "cnots"/"depth"/"swaps" to their records
 * (addRouted); the keys are absent — not null — everywhere else, so
 * pre-existing BENCH files keep their exact shape.
 */
class JsonReporter
{
  public:
    explicit JsonReporter(std::string benchmark)
        : benchmark_(std::move(benchmark))
    {
    }

    void
    add(const std::string &name, double seconds,
        std::optional<uint64_t> pauli_weight = std::nullopt,
        std::optional<uint64_t> candidates = std::nullopt)
    {
        Record r;
        r.name = name;
        r.seconds = seconds;
        r.pauliWeight = pauli_weight;
        r.candidates = candidates;
        records_.push_back(std::move(r));
    }

    /** A device-aware record: the routed-cost triple rides along with
        the usual fields (all three deterministic — the CI trajectory
        check joins on them just like pauli_weight). */
    void
    addRouted(const std::string &name, double seconds,
              std::optional<uint64_t> pauli_weight, uint64_t cnots,
              uint64_t depth, uint64_t swaps)
    {
        Record r;
        r.name = name;
        r.seconds = seconds;
        r.pauliWeight = pauli_weight;
        r.cnots = cnots;
        r.depth = depth;
        r.swaps = swaps;
        records_.push_back(std::move(r));
    }

    /**
     * Write BENCH_<benchmark>.json; returns the file name, or "" (with a
     * note on stderr) when the file cannot be written.
     */
    std::string
    write() const
    {
        const std::string file = "BENCH_" + benchmark_ + ".json";
        std::ofstream os(file);
        if (!os) {
            std::cerr << "JsonReporter: cannot open " << file
                      << " for writing\n";
            return "";
        }
        // JSON is C-locale text; a comma-decimal or grouping locale
        // would corrupt the seconds/weight fields.
        os.imbue(std::locale::classic());
        os << "{\n  \"benchmark\": \"" << benchmark_ << "\",\n"
           << "  \"records\": [\n";
        for (size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            os << "    {\"name\": \"" << r.name << "\", \"seconds\": "
               << r.seconds;
            os << ", \"pauli_weight\": ";
            if (r.pauliWeight)
                os << *r.pauliWeight;
            else
                os << "null";
            os << ", \"candidates\": ";
            if (r.candidates)
                os << *r.candidates;
            else
                os << "null";
            if (r.cnots)
                os << ", \"cnots\": " << *r.cnots << ", \"depth\": "
                   << *r.depth << ", \"swaps\": " << *r.swaps;
            os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        os.flush();
        if (!os.good()) {
            std::cerr << "JsonReporter: write to " << file << " failed\n";
            return "";
        }
        return file;
    }

  private:
    struct Record
    {
        std::string name;
        double seconds = 0.0;
        std::optional<uint64_t> pauliWeight;
        std::optional<uint64_t> candidates;
        std::optional<uint64_t> cnots; //!< routed (addRouted records)
        std::optional<uint64_t> depth;
        std::optional<uint64_t> swaps;
    };

    std::string benchmark_;
    std::vector<Record> records_;
};

/** Metrics reported per (case, mapping) cell. */
struct CellMetrics
{
    uint64_t pauliWeight = 0;
    uint64_t cnot = 0;
    uint64_t depth = 0;
    uint64_t u3 = 0;
    double buildSeconds = 0.0;
};

/** Compile a mapped Hamiltonian to circuit metrics. */
inline CellMetrics
compileMetrics(const MajoranaPolynomial &poly,
               const FermionQubitMapping &map,
               ScheduleKind sched = ScheduleKind::Lexicographic,
               bool compile_circuit = true)
{
    CellMetrics out;
    PauliSum hq = mapToQubits(poly, map);
    out.pauliWeight = hq.pauliWeight();
    if (!compile_circuit)
        return out;
    PauliSum ordered = scheduleTerms(hq, sched);
    Circuit c = evolutionCircuit(ordered);
    optimizeCircuit(c);
    GateCounts counts = c.basisCounts();
    out.cnot = counts.cnot;
    out.u3 = counts.u3;
    out.depth = counts.depth;
    return out;
}

/**
 * Build a mapping by (display) family name over @p poly through the
 * MapperRegistry — registry lookup is case-insensitive, so the tables'
 * "JW" / "HATT-unopt" labels resolve to the canonical registered kinds
 * without a bench-local dispatch copy.
 */
inline MappingResult
buildMappingResult(const std::string &kind, const MajoranaPolynomial &poly)
{
    MappingRequest req;
    req.kind = kind;
    req.poly = &poly;
    StatusOr<MappingResult> built = MapperRegistry::instance().build(req);
    if (!built.ok())
        throw std::invalid_argument("buildMapping: " +
                                    built.status().message());
    return std::move(built).value();
}

/** As buildMappingResult, keeping only the mapping. */
inline FermionQubitMapping
buildMapping(const std::string &kind, const MajoranaPolynomial &poly)
{
    return buildMappingResult(kind, poly).mapping;
}

/** Stable BENCH record name component: spaces become underscores. */
inline std::string
recordName(std::string label)
{
    for (char &c : label)
        if (c == ' ')
            c = '_';
    return label;
}

/**
 * Build one (case, mapping) cell and log a BENCH record named
 * "<case>/<kind>" with the wall-clock of mapping construction +
 * Hamiltonian mapping (+ circuit compilation when enabled), the
 * achieved Pauli weight and, for the HATT kinds, the candidates the
 * construction evaluated. Keep the names stable across PRs — the CI
 * trajectory check (scripts/check_perf_trajectory.py) joins on them.
 */
inline CellMetrics
timedCell(JsonReporter &rep, const std::string &case_label,
          const std::string &kind, const MajoranaPolynomial &poly,
          ScheduleKind sched = ScheduleKind::Lexicographic,
          bool compile_circuit = true)
{
    Timer timer;
    MappingResult built = buildMappingResult(kind, poly);
    CellMetrics m =
        compileMetrics(poly, built.mapping, sched, compile_circuit);
    m.buildSeconds = timer.seconds();
    rep.add(recordName(case_label) + "/" + kind, m.buildSeconds,
            m.pauliWeight, built.metrics.candidates);
    return m;
}

/**
 * Fermihedral stand-in: exact tree search at tiny sizes, stochastic
 * search up to @p max_stochastic_modes, otherwise absent (like FH
 * timing out in the paper's larger rows).
 */
inline std::optional<FermionQubitMapping>
buildFhStar(const MajoranaPolynomial &poly,
            uint32_t max_stochastic_modes = 10)
{
    if (poly.numModes() <= 3) {
        auto res = exhaustiveTreeSearch(poly, 3);
        if (res)
            return res->mapping;
    }
    if (poly.numModes() <= max_stochastic_modes)
        return stochasticTreeSearch(poly, 6, 25, 2024).mapping;
    return std::nullopt;
}

} // namespace hatt::bench

#endif // HATT_BENCH_BENCH_COMMON_HPP
