"""50-digit reference for the closed-form measures and both duality relations.

`exact(intensities, coh)` evaluates s, V_C, D^2, D', gamma_n, C and both
left-hand sides with stdlib decimal from the same float inputs the library
reads.  Decimal(float) is exact and every operation rounds at 50 digits, so
the reference is exact to far below double resolution.  g is read as
validate() stores it, exactly Hermitian, so V_C, gamma_n and C all read the
same modulus |g_ij| of each pair: clipped at 1 for V_C and gamma_n, as
CoherenceMatrix.magnitudes() does, and unclipped for C, as density_from_beams
builds it.  In exact arithmetic C = V_C unless some |g_ij| exceeds 1.

`bounds(n, ref)` gives, per measure, the largest deviation the double
computation in measures.py can have from the reference: each step is
counted in units of the unit roundoff u = 2^-53 and the count k becomes
gamma_k = k u / (1 - k u).  The counts are for the worst summation order,
so they hold for any order numpy picks.
"""

from decimal import Decimal, localcontext
from typing import NamedTuple

U = 2.0**-53
EPS = 2.0**-52
# |z| of a complex double: the scaled form larger * sqrt(1 + r^2) is within
# 3.25u of the true modulus, rounded up here to cover any hypot
MODULUS_U = 4


class Exact(NamedTuple):
    s: Decimal
    v_c: Decimal
    d2: Decimal
    d_prime: Decimal
    gamma_n: Decimal
    c: Decimal
    pyth: Decimal
    lin: Decimal


def _modulus(re, im) -> Decimal:
    re, im = Decimal(re), Decimal(im)
    return (re * re + im * im).sqrt()


def exact(intensities, coh) -> Exact:
    """Every closed-form measure at 50 digits, from the float inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        inten = [Decimal(float(x)) for x in intensities]
        g = coh.entries.tolist()
        n = len(inten)
        pairs = mag_sum = mod_sum = weight_sum = Decimal(0)
        for i in range(n):
            for j in range(i + 1, n):
                # each unordered pair once, counted twice; a product of two
                # doubles is exact at 50 digits
                w = (inten[i] * inten[j]).sqrt()
                assert g[j][i] == g[i][j].conjugate()
                mod = _modulus(g[i][j].real, g[i][j].imag)
                pairs += 2 * w
                weight_sum += 2 * w * min(mod, 1)
                mod_sum += 2 * w * mod
                mag_sum += 2 * min(mod, 1)
        norm = (n - 1) * sum(inten)
        s = pairs / norm
        v_c = weight_sum / norm
        d2 = 1 - s * s
        return Exact(
            s=s,
            v_c=v_c,
            d2=d2,
            d_prime=1 - s,
            gamma_n=mag_sum / (n * (n - 1)),
            c=mod_sum / norm,
            pyth=d2 + v_c * v_c,
            lin=1 - s + v_c,
        )


def gamma(k: float) -> float:
    return k * U / (1.0 - k * U)


class PerMeasure(NamedTuple):
    """One float per checked report field: a deviation or its bound."""

    v_c: float
    d2: float
    d_prime: float
    gamma_n: float
    c: float
    pyth: float
    lin: float


def bounds(n: int, ref: Exact) -> PerMeasure:
    """Largest deviation of each double measure from the reference.

    Step counts in u, for n slits with at most n(n-1) nonzero pair terms:
      r_i = I_i / max I                           1
      pair = sqrt(r_i r_j)                        (1 + 1 + 1)/2 + 1 = 2.5
      sum over pairs                              n(n-1) - 1
      norm = (n-1) * sum r                        1 + (n-1) + 1 = n + 1
      s = sum / norm                              1          -> k_s = n^2 + 3.5
      v_c: pair * |g| adds MODULUS_U + 1          -> k_v = n^2 + 4.5 + MODULUS_U
      gamma_n: moduli, sum, one division          -> n(n-1) + MODULUS_U
      C: sqrt I twice and their product (3), times g (1), over sum I
         (n - 1, and 2 for the division, which rounds once as a real
         division and twice by way of the reciprocal), modulus, sum,
         over (n-1) (1)
                                                  -> k_c = n^2 + 5 + MODULUS_U
    D^2 is checked as the exact square of the double D: 1 - s*s carries
    (2 k_s + 1)u of s^2 and u of D^2, and sqrt then squaring adds 2u of D^2;
    the double D itself is 1/D more sensitive and is not checked directly.
    """
    s, v, d2, dp = (float(x) for x in (ref.s, ref.v_c, ref.d2, ref.d_prime))
    k_s = n * n + 3.5
    k_v = n * n + 4.5 + MODULUS_U
    k_c = n * n + 5 + MODULUS_U
    ss = gamma(2 * k_s + 1) * s * s
    d2_err = ss + gamma(3) * d2
    vv = gamma(2 * k_v + 1) * v * v
    return PerMeasure(
        v_c=gamma(k_v) * v,
        d2=d2_err,
        d_prime=gamma(k_s) * s + U * dp,
        gamma_n=gamma(n * (n - 1) + MODULUS_U) * float(ref.gamma_n),
        c=gamma(k_c) * float(ref.c),
        # d*d re-squares sqrt(1 - s*s) (2u more), then the sum rounds once
        pyth=ss + gamma(4) * d2 + vv + U * float(ref.pyth),
        lin=gamma(k_s) * s + U * dp + gamma(k_v) * v + U * float(ref.lin),
    )


def deviations(report, ref: Exact) -> PerMeasure:
    """Absolute deviation of each report field from the reference; D through
    the exact square of the double D."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(report.d)
        return PerMeasure(
            v_c=float(abs(Decimal(report.v_c) - ref.v_c)),
            d2=float(abs(d * d - ref.d2)),
            d_prime=float(abs(Decimal(report.d_prime) - ref.d_prime)),
            gamma_n=float(abs(Decimal(report.gamma_n) - ref.gamma_n)),
            c=float(abs(Decimal(report.c) - ref.c)),
            pyth=float(abs(Decimal(report.pyth_lhs) - ref.pyth)),
            lin=float(abs(Decimal(report.lin_lhs) - ref.lin)),
        )
