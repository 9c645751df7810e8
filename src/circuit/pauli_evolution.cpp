#include "circuit/pauli_evolution.hpp"

#include <bit>
#include <vector>

namespace hatt {

namespace {

/** exp(-i alpha S) into @p c; @p support is scratch reused across
    terms, filled from the packed X|Z words. */
void
emitTerm(Circuit &c, const PauliString &s, double alpha, LadderStyle style,
         std::vector<int> &support)
{
    const WordSpan xs = s.xWords(), zs = s.zWords();
    support.clear();
    for (size_t w = 0; w < xs.size(); ++w)
        for (uint64_t m = xs[w] | zs[w]; m != 0; m &= m - 1)
            support.push_back(static_cast<int>(64 * w) + std::countr_zero(m));
    if (support.empty())
        return; // global phase
    auto bit = [](const WordSpan &words, int q) {
        return (words[static_cast<size_t>(q) / 64] >> (q % 64)) & 1;
    };

    // (a) basis changes into Z: X -> H, Y -> Sdg H.
    for (int q : support) {
        if (bit(xs, q) && bit(zs, q))
            c.sdg(q);
        if (bit(xs, q))
            c.h(q);
    }
    // (b) entangle into the highest-index support qubit, (c) rotate,
    // (d) undo the entanglement.
    const int target = support.back();
    auto ladder = [&](size_t i) {
        c.cnot(support[i],
               style == LadderStyle::Chain ? support[i + 1] : target);
    };
    for (size_t i = 0; i + 1 < support.size(); ++i)
        ladder(i);
    c.rz(target, 2.0 * alpha);
    for (size_t i = support.size() - 1; i-- > 0;)
        ladder(i);
    // (e) undo basis changes: X -> H, Y -> H S.
    for (int q : support) {
        if (bit(xs, q))
            c.h(q);
        if (bit(xs, q) && bit(zs, q))
            c.s(q);
    }
}

/** Gates emitTerm() emits for @p s: H per X and Sdg H per Y, both
    undone (2x + 4y), the CNOT ladder twice (2w - 2) and one RZ. */
size_t
termGateCount(const PauliString &s)
{
    const WordSpan xs = s.xWords(), zs = s.zWords();
    size_t n = 0;
    for (size_t w = 0; w < xs.size(); ++w)
        n += 2 * (std::popcount(xs[w]) + std::popcount(xs[w] & zs[w]) +
                  std::popcount(xs[w] | zs[w]));
    return n == 0 ? 0 : n - 1;
}

} // namespace

Circuit
pauliTermCircuit(const PauliString &s, double alpha, uint32_t num_qubits,
                 LadderStyle style)
{
    Circuit c(num_qubits);
    std::vector<int> support;
    emitTerm(c, s, alpha, style, support);
    return c;
}

Circuit
evolutionCircuit(const PauliSum &h, const EvolutionOptions &options)
{
    Circuit c(h.numQubits());
    size_t step_gates = 0;
    for (const auto &term : h.terms())
        step_gates += termGateCount(term.string);
    c.reserve(step_gates * options.trotterSteps);
    const double dt = options.time /
                      static_cast<double>(options.trotterSteps);
    std::vector<int> support;
    for (uint32_t step = 0; step < options.trotterSteps; ++step) {
        for (const auto &term : h.terms()) {
            if (term.string.isIdentity())
                continue;
            emitTerm(c, term.string, term.coeff.real() * dt,
                     options.ladder, support);
        }
    }
    return c;
}

} // namespace hatt
