"""Derive the literal Bessel tables of fibermem.waveguide with mpmath.

Usage, from the root of a fibermem checkout:

    python3 bench/bessel_tables.py

mpmath is not a fibermem dependency; this script is the only user.  It
prints, as Python source for waveguide.py:

- _J01_LO, the part of the first zero j0,1 of J0 below the double
  _J0_FIRST_ZERO;
- _J0_OVER_ZERO, the power-series coefficients in x^2 of
  J0(x) / (j0,1^2 - x^2), by synthetic division of J0's series by
  (j0,1^2 - x^2), to J0_TERMS terms (the next adds < 1e-17 relative).
  Dividing out the zero lets J0 keep its relative accuracy up to j0,1;
- _K0_SCALED and _K1_SCALED, the 22-term Chebyshev expansions of
  sqrt(x) e^x K0(x) and sqrt(x) e^x K1(x) on x >= 2 in t = 4/x - 1,
  from Chebyshev-Gauss quadrature on 80 nodes, recast in powers of t.
  Their coefficients fall by about 3.2 per order, faster than the
  (1 + sqrt 2)^k growth of the powers in T_k, so the power form loses
  nothing in double precision.

It then evaluates the rounded tables in double precision by Horner's
rule and prints their largest relative error against mpmath (J0 where
|J0| > 1e-3).
"""

from __future__ import annotations

import mpmath as mp

TERMS = 22
J0_TERMS = 12
NODES = 80
mp.mp.dps = 50


def j0_over_zero(j01):
    """q_k with J0(x) = (j01^2 - x^2) sum q_k x^2k, so j01^2 q_k - q_(k-1)
    is J0's coefficient (-1)^k / (4^k (k!)^2)."""
    q, prev = [], mp.mpf(0)
    for k in range(J0_TERMS):
        prev = ((-1) ** k / (4 ** k * mp.factorial(k) ** 2) + prev) / (j01 * j01)
        q.append(prev)
    return q


def k_scaled(nu):
    """Power-of-t coefficients of the Chebyshev expansion of sqrt(x) e^x K_nu(x)."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    f = []
    for th in theta:
        x = 4 / (1 + mp.cos(th))
        f.append(mp.sqrt(x) * mp.exp(x) * mp.besselk(nu, x))
    cheb = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(f, theta)) / NODES
            for k in range(TERMS)]
    cheb[0] /= 2
    # T_k in powers of t, T_k = 2 t T_(k-1) - T_(k-2)
    t_pow = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    while len(t_pow) < TERMS:
        nxt = [mp.mpf(0)] + [2 * c for c in t_pow[-1]]
        for i, c in enumerate(t_pow[-2]):
            nxt[i] -= c
        t_pow.append(nxt)
    power = [mp.mpf(0)] * TERMS
    for c, poly in zip(cheb, t_pow):
        for i, p in enumerate(poly):
            power[i] += c * p
    return power


def horner(coef, v):
    acc = 0.0
    for c in reversed(coef):
        acc = acc * v + c
    return acc


def _tuple(name, values):
    """name = (values), as reprs packed into lines of at most 99 columns."""
    lines, line = ["%s = (" % name], "   "
    for c in values:
        if len(line) + len(" %r," % c) > 99:
            lines.append(line)
            line = "   "
        line += " %r," % c
    return "\n".join(lines + [line, ")"])


def main() -> int:
    j01 = mp.besseljzero(0, 1)
    j01_hi = float(j01)
    j01_lo = float(j01 - j01_hi)
    q = [float(c) for c in j0_over_zero(j01)]
    k = [[float(c) for c in k_scaled(nu)] for nu in (0, 1)]
    print("_J01_LO = %r" % j01_lo)
    print(_tuple("_J0_OVER_ZERO", q))
    print(_tuple("_K0_SCALED", k[0]))
    print(_tuple("_K1_SCALED", k[1]))

    worst = {"J0": 0.0, "K0": 0.0, "K1": 0.0}
    for i in range(1, 401):
        x = j01_hi * i / 400
        j0 = ((j01_hi - x) + j01_lo) * (j01_hi + x) * horner(q, x * x)
        ref = mp.besselj(0, x)
        if abs(ref) > 1e-3:
            worst["J0"] = max(worst["J0"], float(abs(j0 / ref - 1)))
    for i in range(401):
        x = 2.0 * 350.0 ** (i / 400)
        t = 4.0 / x - 1.0
        for nu, name in enumerate(("K0", "K1")):
            ref = mp.sqrt(x) * mp.exp(x) * mp.besselk(nu, x)
            worst[name] = max(worst[name], float(abs(horner(k[nu], t) / ref - 1)))
    print("# largest relative error against mpmath: "
          + ", ".join("%s %.1e" % item for item in worst.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
