#include "chem/transform.hpp"

#include <cmath>
#include <initializer_list>
#include <stdexcept>

namespace hatt {

MoIntegrals
freezeCore(const MoIntegrals &mo, uint32_t num_frozen, uint32_t num_active)
{
    const uint32_t n = mo.numOrbitals;
    if (num_frozen * 2 > mo.numElectrons)
        throw std::invalid_argument("freezeCore: not enough electrons");
    uint32_t active =
        num_active == 0 ? n - num_frozen : num_active;
    if (num_frozen + active > n)
        throw std::invalid_argument("freezeCore: window exceeds orbitals");

    MoIntegrals out;
    out.numOrbitals = active;
    out.numElectrons = mo.numElectrons - 2 * num_frozen;
    if (out.numElectrons > 2 * active)
        throw std::invalid_argument(
            "freezeCore: active window too small for electrons");

    // Constant from the frozen determinant.
    double e_frozen = 0.0;
    for (uint32_t c = 0; c < num_frozen; ++c) {
        e_frozen += 2.0 * mo.oneBody(c, c);
        for (uint32_t d = 0; d < num_frozen; ++d)
            e_frozen += 2.0 * mo.twoBody.at(c, c, d, d) -
                        mo.twoBody.at(c, d, d, c);
    }
    out.coreEnergy = mo.coreEnergy + e_frozen;

    // Effective one-body term and active-window two-body tensor.
    out.oneBody = RealMatrix(active, active);
    for (uint32_t p = 0; p < active; ++p) {
        for (uint32_t q = 0; q < active; ++q) {
            double h = mo.oneBody(num_frozen + p, num_frozen + q);
            for (uint32_t c = 0; c < num_frozen; ++c)
                h += 2.0 * mo.twoBody.at(num_frozen + p, num_frozen + q,
                                         c, c) -
                     mo.twoBody.at(num_frozen + p, c, c,
                                   num_frozen + q);
            out.oneBody(p, q) = h;
        }
    }
    out.twoBody = EriTensor(active);
    for (uint32_t p = 0; p < active; ++p)
        for (uint32_t q = 0; q < active; ++q)
            for (uint32_t r = 0; r < active; ++r)
                for (uint32_t s = 0; s < active; ++s)
                    out.twoBody.at(p, q, r, s) =
                        mo.twoBody.at(num_frozen + p, num_frozen + q,
                                      num_frozen + r, num_frozen + s);
    return out;
}

void
secondQuantizeInto(const MoIntegrals &mo,
                   const std::function<void(const FermionTerm &)> &emit,
                   double coeff_tol)
{
    const uint32_t n = mo.numOrbitals;
    // Block spin ordering: alpha modes [0, n), beta modes [n, 2n).
    auto mode = [&](uint32_t p, int spin) {
        return p + static_cast<uint32_t>(spin) * n;
    };
    FermionTerm term;
    auto put = [&](double coeff, std::initializer_list<FermionOp> ops) {
        term.coeff = coeff;
        term.ops.assign(ops);
        emit(term);
    };

    if (mo.coreEnergy != 0.0)
        put(mo.coreEnergy, {});

    for (uint32_t p = 0; p < n; ++p) {
        for (uint32_t q = 0; q < n; ++q) {
            double h = mo.oneBody(p, q);
            if (std::abs(h) < coeff_tol)
                continue;
            for (int spin = 0; spin < 2; ++spin)
                put(h, {create(mode(p, spin)), annihilate(mode(q, spin))});
        }
    }

    // 1/2 sum_{pqrs} <pq|rs> a†_p a†_q a_s a_r with <pq|rs> = (pr|qs).
    for (uint32_t p = 0; p < n; ++p) {
        for (uint32_t q = 0; q < n; ++q) {
            for (uint32_t r = 0; r < n; ++r) {
                for (uint32_t s = 0; s < n; ++s) {
                    double g = mo.twoBody.at(p, r, q, s);
                    if (std::abs(g) < coeff_tol)
                        continue;
                    for (int s1 = 0; s1 < 2; ++s1) {
                        for (int s2 = 0; s2 < 2; ++s2) {
                            uint32_t mp = mode(p, s1), mq = mode(q, s2);
                            uint32_t mr = mode(r, s1), ms = mode(s, s2);
                            if (mp == mq || mr == ms)
                                continue; // a†a† / aa on same mode = 0
                            put(0.5 * g, {create(mp), create(mq),
                                          annihilate(ms), annihilate(mr)});
                        }
                    }
                }
            }
        }
    }
}

FermionHamiltonian
secondQuantize(const MoIntegrals &mo, double coeff_tol)
{
    FermionHamiltonian hf(2 * mo.numOrbitals);
    secondQuantizeInto(
        mo, [&](const FermionTerm &term) { hf.add(term); }, coeff_tol);
    return hf;
}

} // namespace hatt
