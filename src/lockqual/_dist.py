"""Normal, logistic and chi-square kernels in NumPy and the standard library.

These are the only special functions lockqual evaluates: the normal
CDF and density, tail and quantile for the ordered probit and the SEM
t-tests, the logistic function for the probit's cutpoint gaps, and the
chi-square upper tail for Bartlett's test, the SEM chi-square and the
probit likelihood-ratio test. Each is checked against mpmath and
against its SciPy counterpart in tests/test_dist.py, to the relative
errors stated below, gives SciPy's values at NaN, +-inf and -0.0, and
raises no floating-point warning.

One private kernel, `_normal`, gives both Phi(x) and the density
phi(x) from a single pass: the ordered probit's cells take both at
once, and `norm_sf` takes Phi(-x). It evaluates Phi(-t) =
exp(-t^2/2) R(t), t = |x|, with one rational function R (below) over
0 <= t <= 40, and takes 1 - Phi(-t) for x > 0. As in Cody's erfc
(Math. Comp. 23, 1969), exp(-t^2/2) is split as exp(-h^2/2)
exp(-(t - h)(t + h)/2), with h the multiple of 1/16 nearest t, whose
square is exact, so that the rounding of t^2 never reaches the result;
phi is that same product over sqrt(2 pi). P and Q are summed by
Horner's rule, element by element, so each value depends on its x
alone, whatever the array around it; a 0-d input returns NumPy floats,
as a ufunc does. `norm_ppf` is Wichura's AS241 (PPND16, Applied
Statistics 37, 1988), with no iteration, and `expit` the two-branch
logistic function, which never overflows; both take one Python float at
a time, since their callers pass a few cutpoints. `chi2_sf` is the
regularized upper incomplete gamma function, by its series or its
continued fraction (Press et al., Numerical Recipes, section 6.2); its
prefactor z^a e^-z / Gamma(a) goes through log(1 + u) - u,
u = z/a - 1, so that the large terms of a log z - z - lgamma(a) never
cancel in floating point.

Largest relative errors against the exact value (mpmath, 40 digits):
Phi (`norm_sf`) 1.2e-15 over |x| <= 38 wherever the value is
>= 1e-300, phi 5.0e-16 wherever it is >= 1e-300 (|x| <= 37.1),
`norm_ppf` 6e-16, `expit` 3e-16, and `chi2_sf` 8.4 eps (1 + |log Q|)
for a value Q, 6.1e-15 where Q >= 1e-5. SciPy's ndtr, norm.pdf and
chdtrc are less exact in their tails: ndtr rounds x / sqrt(2) and its
square before taking exp, which costs 1.1e-14 near x = -7.9 and up to
2.4e-13 near x = -37; norm.pdf's exp of the rounded x^2/2 costs up to
5.7e-14 near |x| = 37; and chdtrc reaches 49 eps (1 + |log Q|). So
these kernels differ from SciPy by more than 1e-14 there: by up to
2.4e-13 (Phi), 5.7e-14 (phi) and 6.8e-13 (`chi2_sf`),
which is SciPy's own error.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["norm_sf", "norm_ppf", "chi2_sf", "expit"]

_SQRT_2PI = np.sqrt(2 * np.pi)

# R(t) = exp(t^2/2) Phi(-t) = erfcx(t / sqrt(2)) / 2 ~ P(t) / Q(t), degree
# 9 over 10, on 0 <= t <= 40, coefficients by ascending power. Derived with
# mpmath at 40 digits: weighted linear least squares of P - R Q at 170
# Chebyshev nodes of u = t / (t + 2), reweighted by 1 / (R Q) six times
# (Sanathanan-Koerner iteration). Largest relative error of the exact
# rational against R, on 2,000 points of [0, 40]: 6.8e-17 (degree 8 over 9
# reaches only 3.7e-15). Every coefficient is positive, so neither Horner
# sum cancels.
_R_NUM = (
    0.49999999999999998151,
    0.77384001893667861641,
    0.59252170842392595816,
    0.28822651529679788329,
    0.09719501854698855104,
    0.023465766990539843238,
    0.0040554313417479454,
    0.00048541647227819873923,
    0.000036788960777792201495,
    1.3643464673559678353e-6,
)
_R_DEN = (
    1.0,
    2.3455645986762150405,
    2.556533196497621505,
    1.7094506181853731743,
    0.77889762112145341912,
    0.25361279591313560327,
    0.060029874299568797287,
    0.010257675104773766331,
    0.0012201785640210884402,
    0.000092216249277712307671,
    3.4199094314779195856e-6,
)
_T_MAX = 40.0  # exp(-t^2/2) underflows to 0 beyond, so R need not reach further
_ROUND_16 = 1.5 * 2.0**48  # its unit in the last place is 1/16


def _horner(coefs: tuple, t: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] t^i by Horner's rule, in place in one new array."""
    out = t * coefs[-1]
    for c in coefs[-2:0:-1]:
        out += c
        out *= t
    out += coefs[0]
    return out


def _normal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi(x), phi(x)) for a float array x, from one pass over t = |x|.

    Both come from the split exp: phi(x) = exp(-t^2/2) / sqrt(2 pi) and
    Phi(-t) = exp(-t^2/2) R(t). A 0-d x gives NumPy floats, as a ufunc does.
    """
    t = np.abs(x).ravel()
    np.minimum(t, _T_MAX, out=t)  # NaN stays NaN
    # exp(-t^2/2) = exp(-h^2/2) exp(-(t - h)(t + h)/2), with h the nearest
    # multiple of 1/16 (adding and taking away _ROUND_16 rounds t to one)
    h = t + _ROUND_16
    h -= _ROUND_16
    w = np.empty((2, t.size))
    np.multiply(h, h, out=w[0])
    np.subtract(t, h, out=w[1])
    h += t
    w[1] *= h
    w *= -0.5
    np.exp(w, out=w)
    e = w[0] * w[1]  # one rounding of the product, should it be subnormal
    q = _horner(_R_NUM, t)
    q /= _horner(_R_DEN, t)
    q *= e
    q = q.reshape(x.shape)
    e /= _SQRT_2PI
    return np.where(x > 0, 1.0 - q, q)[()], e.reshape(x.shape)[()]


def norm_sf(x):
    return _normal(-np.asarray(x, dtype=float))[0]


def _descending(num: tuple, den: tuple) -> tuple:
    """(num, den) coefficient pairs by descending power, for _ratio."""
    return tuple(zip(reversed(num), reversed(den)))


def _ratio(pairs: tuple, r: float) -> float:
    """num(r) / den(r) by Horner's rule, for the pairs of _descending."""
    num = den = 0.0
    for a, b in pairs:
        num = num * r + a
        den = den * r + b
    return num / den


# AS241 (PPND16): numerator and denominator coefficients by ascending power,
# for the central region |q - 0.5| <= 0.425, then the tails with
# r = sqrt(-log(min(q, 1 - q))) <= 5 and beyond.
_PPF_CENTRAL = _descending(
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_PPF_NEAR = _descending(
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_PPF_FAR = _descending(
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _ppf(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        return math.nan
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _ratio(_PPF_CENTRAL, 0.180625 - q * q)
    tail = min(p, 1.0 - p)
    if tail == 0.0:
        return math.copysign(math.inf, q)
    r = math.sqrt(-math.log(tail))
    v = _ratio(_PPF_NEAR, r - 1.6) if r <= 5.0 else _ratio(_PPF_FAR, r - 5.0)
    return -v if q < 0 else v


def norm_ppf(q):
    return _elementwise(_ppf, q)


def _expit(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def expit(x):
    return _elementwise(_expit, x)


def _elementwise(f, x):
    """f over the floats of x, as a ufunc would map it, for the few values
    (a handful of cutpoints) that the callers of norm_ppf and expit pass."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(f(float(x)))
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _log1pmx(u: float) -> float:
    """log(1 + u) - u, without cancellation for -1/2 <= u <= 2."""
    if u > 2.0:
        return math.log1p(u) - u
    # log(1 + u) = 2 atanh(s), s = u / (2 + u); the leading 2 s - u is -u s
    s = u / (2.0 + u)
    s2 = s * s
    term, total, k = s * s2, 0.0, 3
    while True:
        nxt = total + term / k
        if nxt == total:
            return 2.0 * total - u * s
        total, term, k = nxt, term * s2, k + 2


# Bernoulli terms of Stirling's series for log Gamma(a) - ((a - 1/2) log a - a
# + log(2 pi) / 2): 1/12, -1/360, 1/1260, ... over a^1, a^3, a^5, ...; eight
# terms reach 1e-17 at a = 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _log_gamma_prefactor(a: float, z: float) -> float:
    """log(z^a e^-z / Gamma(a)) = a log1pmx(z/a - 1) + a log a - a - lgamma(a)."""
    if a < 10.0:
        rest = a * math.log(a) - a - math.lgamma(a)
    else:
        inv2 = 1.0 / (a * a)
        stirling = 0.0
        for c in reversed(_STIRLING):
            stirling = stirling * inv2 + c
        rest = 0.5 * math.log(a / (2.0 * math.pi)) - stirling / a
    if z < 0.5 * a:
        # z/a - 1 would round z away; with log(z/a) <= -log 2 nothing cancels
        return a * (math.log(z) - math.log(a)) + (a - z) + rest
    return a * _log1pmx((z - a) / a) + rest


def _gamma_q(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) for a > 0, z > 0."""
    log_f = _log_gamma_prefactor(a, z)
    tiny = 1e-300
    if z < a + 1.0:
        # P(a, z) = f / a * sum_n z^n / ((a + 1) ... (a + n))
        term = total = 1.0 / a
        ap = a
        while True:
            ap += 1.0
            term *= z / ap
            total += term
            if term < total * 1e-17:
                break
        return 1.0 - math.exp(log_f) * total
    # continued fraction for Q(a, z) / f, by the modified Lentz method, to
    # the point where a further term moves the value by one unit at most
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.3e-16:
            break
    return math.exp(log_f) * h


def chi2_sf(x, df) -> float:
    """Upper tail P(X > x) of a chi-square with df degrees of freedom, for one x.

    1.0 for x <= 0 and 0.0 for x = inf; underflows to 0.0 far in the tail.
    """
    if not df > 0:
        raise ValueError("chi-square degrees of freedom must be positive")
    z = 0.5 * float(x)
    if math.isnan(z):
        return math.nan
    if z <= 0.0:  # x <= 0, or a subnormal x that halves to 0
        return 1.0
    if math.isinf(z):
        return 0.0
    return _gamma_q(0.5 * float(df), z)
