#include "chem/transform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <utility>

namespace hatt {

namespace {

/** Sort four distinct indices ascending; returns the permutation's
    sign (Majoranas anticommute). */
double
sortSign(uint32_t (&m)[4])
{
    double sign = 1.0;
    auto order = [&](int a, int b) {
        if (m[a] > m[b]) {
            std::swap(m[a], m[b]);
            sign = -sign;
        }
    };
    order(0, 1);
    order(2, 3);
    order(0, 2);
    order(1, 3);
    order(1, 2);
    return sign;
}

} // namespace

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

FermionHamiltonian
secondQuantize(const MoIntegrals &mo, double coeff_tol)
{
    const uint32_t n = mo.numOrbitals;
    // Block spin ordering: alpha modes [0, n), beta modes [n, 2n).
    auto mode = [&](uint32_t p, int spin) {
        return p + static_cast<uint32_t>(spin) * n;
    };
    FermionHamiltonian hf(2 * n);

    if (mo.coreEnergy != 0.0)
        hf.add(mo.coreEnergy, {});

    for (uint32_t p = 0; p < n; ++p) {
        for (uint32_t q = 0; q < n; ++q) {
            double h = mo.oneBody(p, q);
            if (std::abs(h) < coeff_tol)
                continue;
            for (int spin = 0; spin < 2; ++spin)
                hf.add(h, {create(mode(p, spin)), annihilate(mode(q, spin))});
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
                            hf.add(0.5 * g, {create(mp), create(mq),
                                             annihilate(ms), annihilate(mr)});
                        }
                    }
                }
            }
        }
    }
    return hf;
}

size_t
addIntegralMonomials(const MoIntegrals &mo, StreamingMajoranaAccumulator &acc,
                     double coeff_tol)
{
    const uint32_t n = mo.numOrbitals;
    acc.ensureModes(2 * n);
    // secondQuantize's cutoff, applied to every integral read.
    auto cut = [&](double v) { return std::abs(v) < coeff_tol ? 0.0 : v; };
    auto h = [&](uint32_t p, uint32_t q) { return cut(mo.oneBody(p, q)); };
    auto g = [&](uint32_t p, uint32_t q, uint32_t r, uint32_t s) {
        return cut(mo.twoBody.at(p, q, r, s));
    };
    size_t terms = mo.coreEnergy != 0.0 ? 1 : 0;

    // The constant and the one-body matrix F (see the header): each
    // a†a is 1/2 + (i/2) x y on the diagonal, and the two-body terms
    // with a shared mode reduce to one-body and constant parts.
    double constant = mo.coreEnergy;
    RealMatrix f(n, n);
    for (uint32_t p = 0; p < n; ++p) {
        constant += h(p, p);
        for (uint32_t q = 0; q < n; ++q) {
            constant += 0.5 * g(p, p, q, q) - 0.25 * g(p, q, q, p);
            double fpq = h(p, q);
            terms += fpq != 0.0 ? 2 : 0;
            for (uint32_t r = 0; r < n; ++r)
                fpq += g(p, q, r, r) - 0.5 * g(p, r, r, q);
            f(p, q) = fpq;
        }
    }
    if (constant != 0.0)
        acc.addMonomial(constant, {});
    for (uint32_t spin = 0; spin < 2; ++spin)
        for (uint32_t p = 0; p < n; ++p)
            for (uint32_t r = 0; r < n; ++r) {
                if (f(p, r) == 0.0)
                    continue;
                // (i/2) F_pr x_p y_r, written in ascending order.
                const uint32_t x = 2 * (p + spin * n);
                const uint32_t y = 2 * (r + spin * n) + 1;
                const cplx c{0.0, 0.5 * f(p, r)};
                const uint32_t m[2] = {std::min(x, y), std::max(x, y)};
                acc.addMonomial(x < y ? c : -c, m);
            }

    // -1/8 (pr|qs) x_P y_R x_Q y_S for one unique class (ij|kl). Its
    // (p, r) in {(i, j), (j, i)} times (q, s) in {(k, l), (l, k)} is
    // half its orbit; the other half swaps the roles of (p, r) and
    // (q, s), which with the spins swapped is the same product, so it
    // doubles the weight unless ij == kl.
    auto addClass = [&](uint32_t i, uint32_t j, uint32_t k, uint32_t l) {
        const double v = g(i, j, k, l);
        if (v == 0.0)
            return;
        assert(mo.twoBody.at(j, i, l, k) == v &&
               mo.twoBody.at(k, l, i, j) == v);
        const uint32_t w = (k == i && l == j) ? 1 : 2;
        const cplx c = -0.125 * w * v;
        const uint32_t pr[2][2] = {{i, j}, {j, i}};
        const uint32_t qs[2][2] = {{k, l}, {l, k}};
        for (int a = 0; a < (i == j ? 1 : 2); ++a)
            for (int b = 0; b < (k == l ? 1 : 2); ++b) {
                const uint32_t p = pr[a][0], r = pr[a][1];
                const uint32_t q = qs[b][0], s = qs[b][1];
                // secondQuantize gives each (pr|qs) entry four spin
                // cases, less the two a†a† or aa on one mode.
                const bool shared = p == q || r == s;
                terms += w * (shared ? 2 : 4);
                for (uint32_t s1 = 0; s1 < 2; ++s1)
                    for (uint32_t s2 = 0; s2 < 2; ++s2) {
                        if (s1 == s2 && shared)
                            continue; // a repeated Majorana
                        uint32_t m[4] = {2 * (p + s1 * n),
                                         2 * (r + s1 * n) + 1,
                                         2 * (q + s2 * n),
                                         2 * (s + s2 * n) + 1};
                        acc.addMonomial(c * sortSign(m), m);
                    }
            }
    };
    // Each unique class once: i >= j, k >= l, ij >= kl.
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t j = 0; j <= i; ++j)
            for (uint32_t k = 0; k <= i; ++k)
                for (uint32_t l = 0; l <= (k == i ? j : k); ++l)
                    addClass(i, j, k, l);
    return terms;
}

} // namespace hatt
