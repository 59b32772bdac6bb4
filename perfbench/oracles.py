"""Reference values that do not run the code path being timed.

The q-log-Normal law is a Normal(mu, sigma) in y = ln_q x kept on one side
of b = 1/(q-1); everything here goes through scipy.stats.truncnorm, the
exact KS law scipy.stats.kstwo (Simard & L'Ecuyer, J. Stat. Softw. 39(11),
2011), or mpmath quadrature, never through qlognorm's own formulas.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats


def q_log(x, q):
    x = np.asarray(x, dtype=float)
    u = 1.0 - q
    return np.log(x) if u == 0.0 else np.expm1(u * np.log(x)) / u


def q_exp(y, q):
    y = np.asarray(y, dtype=float)
    u = 1.0 - q
    return np.exp(y) if u == 0.0 else np.exp(np.log1p(u * y) / u)


def y_law(q, mu, sigma):
    """The frozen truncated Normal that y = ln_q x follows."""
    b = math.inf if q == 1.0 else 1.0 / (q - 1.0)
    lo, hi = ((b - mu) / sigma, math.inf) if q < 1.0 else (-math.inf, (b - mu) / sigma)
    return stats.truncnorm(lo, hi, loc=mu, scale=sigma)


def y_cdf(q, mu, sigma):
    """The CDF of y_law(q, mu, sigma) straight from the Normal CDF, for
    10^6-point KS tests: truncnorm.cdf guards far tails these tests do not
    reach and is about ten times slower."""
    b = math.inf if q == 1.0 else 1.0 / (q - 1.0)
    mass = special.ndtr((b - mu) / sigma)  # Normal mass below b

    def f(y):
        below = special.ndtr((np.asarray(y, dtype=float) - mu) / sigma)
        out = (below - mass) / (1.0 - mass) if q < 1.0 else below / mass
        return np.clip(out, 0.0, 1.0)

    return f


def pdf(x, q, mu, sigma):
    x = np.asarray(x, dtype=float)
    return y_law(q, mu, sigma).pdf(q_log(x, q)) * x ** (-q)


def cdf(x, q, mu, sigma):
    return y_law(q, mu, sigma).cdf(q_log(x, q))


def draw(q, mu, sigma, n, seed):
    """n draws by scipy's truncated-Normal sampler and the closed-form q_exp."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return q_exp(y_law(q, mu, sigma).rvs(size=n, random_state=rng), q)


def raw_moments(orders, q, mu, sigma, dps=30):
    """<x^n> by mpmath quadrature in y-space (q < 1, all moments finite)."""
    import mpmath

    mpmath.mp.dps = dps
    b = mpmath.mpf(1) / (q - 1)
    u = mpmath.mpf(1) - q
    mass = mpmath.ncdf((mu - b) / sigma)

    def moment(n):
        def f(y):
            return (1 + u * y) ** (n / u) * mpmath.npdf(y, mu, sigma)

        return float(mpmath.quad(f, [b, mu, mu + 10 * sigma, mpmath.inf]) / mass)

    return [moment(n) for n in orders]


def ks_quantiles(ns, levels, replicas, asymptotic_ns):
    """Exact KS quantiles for each finite n, and the quantiles of sqrt(n) D
    pooled evenly over asymptotic_ns, each with the Monte Carlo standard
    error of an empirical quantile from the given replica count."""
    rows = {}
    for n in ns:
        law = stats.kstwo(n)
        x = law.ppf(levels)
        se = np.sqrt(np.multiply(levels, np.subtract(1.0, levels)) / replicas) / law.pdf(x)
        rows[n] = (x, se)
    laws = [stats.kstwo(n) for n in asymptotic_ns]
    roots = np.sqrt(asymptotic_ns)

    def mix_cdf(c):
        return float(np.mean([law.cdf(c / r) for law, r in zip(laws, roots)]))

    def mix_pdf(c):
        return float(np.mean([law.pdf(c / r) / r for law, r in zip(laws, roots)]))

    coeffs, coeff_se = [], []
    pooled = replicas * len(asymptotic_ns)
    for lv in levels:
        c = optimize.brentq(lambda c: mix_cdf(c) - lv, 0.3, 3.0, xtol=1e-12)
        coeffs.append(c)
        coeff_se.append(math.sqrt(lv * (1.0 - lv) / pooled) / mix_pdf(c))
    return rows, (np.array(coeffs), np.array(coeff_se))


def hill(samples, k):
    top = np.sort(samples)[::-1][: k + 1]
    return float(1.0 / np.mean(np.log(top[:k] / top[k])))
