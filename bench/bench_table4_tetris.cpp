/**
 * @file
 * Reproduces Table IV: architecture-aware compilation (Tetris-lite:
 * greedy layout + SWAP routing) of the electronic-structure circuits
 * onto Manhattan (65q), Sycamore (54q) and Montreal (27q), JW vs HATT.
 * Reports CNOT / U3 / depth after routing and peephole optimization,
 * through the library's one routed-cost pipeline
 * (device::evaluateHardwareCost).
 */

#include "bench_common.hpp"
#include "chem/molecule.hpp"
#include "device/cost.hpp"

using namespace hatt;
using namespace hatt::bench;

int
main()
{
    struct Case
    {
        MoleculeSpec spec;
        const char *label;
    };
    const std::vector<Case> cases = {
        {{"H2", BasisSet::Sto3g, false, 0}, "H2 sto3g"},
        {{"H2", BasisSet::Sto3g, true, 0}, "H2 sto3g frz"},
        {{"H2", BasisSet::B631g, false, 0}, "H2 631g"},
        {{"H2", BasisSet::B631g, true, 0}, "H2 631g frz"},
        {{"LiH", BasisSet::Sto3g, false, 0}, "LiH sto3g"},
        {{"LiH", BasisSet::Sto3g, true, 3}, "LiH sto3g frz"},
        {{"NH", BasisSet::Sto3g, true, 0}, "NH sto3g frz"},
        {{"BeH2", BasisSet::Sto3g, true, 0}, "BeH2 sto3g frz"},
        {{"O2", BasisSet::Sto3g, false, 0}, "O2 sto3g"},
    };

    std::cout << "=== Table IV: Tetris-lite on device topologies ===\n";
    JsonReporter json("table4_tetris");
    const CouplingMap devices[] = {CouplingMap::ibmManhattan(),
                                   CouplingMap::sycamore(),
                                   CouplingMap::ibmMontreal()};

    for (const auto &device : devices) {
        std::cout << "--- " << device.name() << " ("
                  << device.numQubits() << " qubits) ---\n";
        TablePrinter table({"Case", "Modes", "CNOT(JW)", "CNOT(HATT)",
                            "U3(JW)", "U3(HATT)", "Depth(JW)",
                            "Depth(HATT)"});
        for (const auto &c : cases) {
            MolecularProblem prob = buildMolecule(c.spec);
            MajoranaPolynomial poly =
                MajoranaPolynomial::fromFermion(prob.hamiltonian);
            if (poly.numModes() > device.numQubits())
                continue;

            // Route through the full pipeline, logging wall-clock per
            // (device, case, mapping) — routing is the dominant cost.
            auto timed = [&](const char *kind) {
                Timer timer;
                StatusOr<device::HardwareCost> cost =
                    device::evaluateHardwareCost(
                        poly, buildMapping(kind, poly), device);
                json.add(recordName(device.name()) + "/" +
                             recordName(c.label) + "/" + kind,
                         timer.seconds());
                return cost;
            };
            StatusOr<device::HardwareCost> jw_cost = timed("JW");
            StatusOr<device::HardwareCost> hatt_cost = timed("HATT");
            if (!jw_cost.ok() || !hatt_cost.ok()) {
                std::cerr << "FAIL " << device.name() << "/" << c.label
                          << ": "
                          << (jw_cost.ok() ? hatt_cost : jw_cost)
                                 .status()
                                 .message()
                          << "\n";
                return 1;
            }
            const device::HardwareCost &jw = jw_cost.value();
            const device::HardwareCost &hatt = hatt_cost.value();
            table.addRow(
                {c.label, std::to_string(poly.numModes()),
                 TablePrinter::num(static_cast<long long>(jw.cnots)),
                 TablePrinter::num(static_cast<long long>(hatt.cnots)),
                 TablePrinter::num(static_cast<long long>(jw.u3)),
                 TablePrinter::num(static_cast<long long>(hatt.u3)),
                 TablePrinter::num(static_cast<long long>(jw.depth)),
                 TablePrinter::num(static_cast<long long>(hatt.depth))});
        }
        table.print(std::cout);
    }
    std::cout << "wrote " << json.write() << "\n";
    return 0;
}
