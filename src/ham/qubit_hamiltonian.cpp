#include "ham/qubit_hamiltonian.hpp"

#include <cassert>
#include <utility>

#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace hatt {

namespace {

/**
 * Map terms [lo, hi) into a fresh PauliSum. The product is folded
 * in-place with the exact operation sequence of the historical serial
 * loop (coeff * m.coeff, then * i^k), so coefficients are bit-identical
 * to PauliTerm::multiply chains while skipping its per-step PauliString
 * allocation.
 */
PauliSum
mapChunk(const FermionQubitMapping &map, const MajoranaPolynomial &poly,
         size_t lo, size_t hi)
{
    PauliSum out(map.numQubits);
    for (size_t t = lo; t < hi; ++t) {
        const MajoranaMonomial term = poly[t];
        cplx coeff = term.coeff;
        PauliString s(map.numQubits);
        for (uint32_t mi : term.indices) {
            assert(mi < map.majorana.size());
            const PauliTerm &m = map.majorana[mi];
            const int k = s.multiplyRight(m.string);
            coeff *= m.coeff;
            coeff *= phaseFromExponent(k);
        }
        out.add(PauliTerm{coeff, std::move(s)});
    }
    return out;
}

} // namespace

QubitMappingEngine::QubitMappingEngine(const FermionQubitMapping &map)
    : map_(&map), mapped_(map.numQubits)
{
}

void
QubitMappingEngine::addBatch(const MajoranaPolynomial &poly, size_t first,
                             size_t count)
{
    // Caller-thread checkpoint per dispatch: throws before any of this
    // batch is merged, so mapped_ never holds a partial batch.
    deadline_.check();
    // Deterministic fan-out: the chunk decomposition is a pure function
    // of (count, kStreamBatch), and the fold below visits chunks in
    // index order, so the merged term order equals the serial scan for
    // every thread count.
    PauliSum batch = parallelReduceChunks(
        count, kStreamBatch, PauliSum(map_->numQubits),
        [&](size_t lo, size_t hi) {
            // Worker-safe poll: a bailed chunk's empty partial is
            // discarded because the post-dispatch check() throws.
            if (deadline_.expired())
                return PauliSum(map_->numQubits);
            return mapChunk(*map_, poly, first + lo, first + hi);
        },
        [](PauliSum out, PauliSum part) {
            out.append(std::move(part));
            return out;
        });
    deadline_.check();
    // Counted only when the whole batch committed: an expired deadline
    // above contributes nothing, exactly like the partial it discards.
    if (count > 0) {
        metrics::add("map.batches");
        metrics::add("map.monomials", count);
    }
    mapped_.append(std::move(batch));
}

PauliSum
QubitMappingEngine::finish(double tol)
{
    mapped_.compress(tol);
    PauliSum out = std::move(mapped_);
    mapped_ = PauliSum(map_->numQubits);
    return out;
}

PauliSum
mapToQubits(const MajoranaPolynomial &poly, const FermionQubitMapping &map)
{
    assert(poly.numModes() == map.numModes);
    QubitMappingEngine engine(map);
    engine.addBatch(poly.terms());
    return engine.finish();
}

PauliSum
mapToQubits(const FermionHamiltonian &hf, const FermionQubitMapping &map)
{
    return mapToQubits(MajoranaPolynomial::fromFermion(hf), map);
}

HamiltonianMetrics
hamiltonianMetrics(const PauliSum &sum)
{
    HamiltonianMetrics m;
    m.pauliWeight = sum.pauliWeight();
    m.numTerms = sum.numNonIdentityTerms();
    m.maxImagCoeff = sum.maxImagCoeff();
    return m;
}

} // namespace hatt
