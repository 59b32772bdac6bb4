"""Estimation and goodness of fit.

Maximum likelihood for the deformed log-Normal family (and log-Normal /
Gamma baselines), Akaike comparison in the form 2k + n ln(RSS/n) with RSS
taken between the empirical and fitted distribution functions at the
sample points, Kolmogorov-Smirnov distances, and Monte Carlo quantile
tables of the KS statistic under a fully specified null.

The optimizer is a derivative-free simplex search multi-started over a
small lattice of deformation values, with sigma optimized in log
parameterization; the analytic score equations are kept as a verification
oracle (score_gradient), not as the solver.  The tables are
simple-hypothesis tables (no refitting before testing, which would shift
the null).  There F(X) is Uniform(0, 1), the probability integral
transform, so the statistic is distribution-free: replicas are simulated
as sorted uniforms, and a table's parameters are metadata only.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize, special

from . import dist
from .dist import QParams, MixtureParams
from .errors import DataError, DomainError
# q_exp is unused here but kept importable: tracers patch infer.q_exp
from .qalgebra import Q_CLASSICAL_EPS, q_exp
from .sample import RngStream

__all__ = [
    "MODELS",
    "FitReport",
    "KSTable",
    "PValueBracket",
    "log_likelihood",
    "fit_mle",
    "fit_gamma",
    "score_gradient",
    "aic",
    "empirical_cdf_rss",
    "ks_distance",
    "ks_table_generate",
    "ks_pvalue_lookup",
    "model_cdf",
]

MODELS = ("q_log_normal", "mixture", "log_normal", "gamma")

_PARAM_COUNT = {"q_log_normal": 3, "mixture": 3, "log_normal": 2, "gamma": 2}

DEFAULT_NS = tuple(range(5, 51, 5)) + tuple(range(60, 101, 10))
DEFAULT_LEVELS = (0.80, 0.85, 0.90, 0.95, 0.99)
ASYMPTOTIC_NS = (200, 500, 1000)
TABLE_FORMAT_VERSION = 1

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _as_positive_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("data must be nonempty")
    if np.isnan(arr).any() or np.isinf(arr).any():
        bad = np.nonzero(~np.isfinite(arr))[0][:10]
        raise DataError(f"non-finite data at indices {bad.tolist()}")
    if (arr <= 0).any():
        bad = np.nonzero(arr <= 0)[0][:10]
        raise DataError(
            f"model requires strictly positive data; offending indices {bad.tolist()}"
        )
    return arr


def _effective_workers(requested=None, njobs=None) -> int:
    # min(requested, usable CPUs, njobs), lowered by QLOGNORM_THREADS
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    try:
        cap = int(os.environ.get("QLOGNORM_THREADS") or cpus)
    except ValueError:
        cap = cpus
    return max(1, min(int(requested or cpus), cpus, int(njobs or cpus), cap))


# ---------------------------------------------------------------------------
# likelihood internals

def _qln_y(lx: np.ndarray, q: float) -> np.ndarray:
    u = 1.0 - q
    if abs(u) < Q_CLASSICAL_EPS:
        return lx
    return np.expm1(u * lx) / u


def _qln_log_norm(q: float, mu: float, sigma: float) -> float:
    # ln Z, -inf signalling "no mass" rather than raising (optimizer path)
    base = _LN_SQRT_2PI + math.log(sigma)
    if abs(q - 1.0) < Q_CLASSICAL_EPS:
        return base
    b = 1.0 / (q - 1.0)
    w = (mu - b) / sigma if q < 1.0 else (b - mu) / sigma
    return base + float(special.log_ndtr(w))


def _qln_logpdf_terms(lx: np.ndarray, q: float, mu: float, sigma: float) -> np.ndarray:
    y = _qln_y(lx, q)
    return -q * lx - 0.5 * ((y - mu) / sigma) ** 2 - _qln_log_norm(q, mu, sigma)


def _loglik_vector(lx: np.ndarray, model: str, p: Mapping[str, float]) -> np.ndarray:
    if model == "q_log_normal":
        return _qln_logpdf_terms(lx, p["q"], p["mu"], p["sigma"])
    if model == "mixture":
        f = p.get("f", 0.5)
        a = _qln_logpdf_terms(lx, p["q"], p["mu"], p["sigma"])
        bq = 2.0 - p["q"]
        b = _qln_logpdf_terms(lx, bq, p["mu"], p["sigma"])
        if f >= 1.0:
            return a
        if f <= 0.0:
            return b
        return np.logaddexp(math.log(f) + a, math.log1p(-f) + b)
    if model == "log_normal":
        mu, sigma = p["mu"], p["sigma"]
        return -lx - _LN_SQRT_2PI - math.log(sigma) - 0.5 * ((lx - mu) / sigma) ** 2
    if model == "gamma":
        kappa, theta = p["kappa"], p["theta"]
        x = np.exp(lx)
        return (
            kappa * lx
            - x / theta
            - (1.0 + kappa) * math.log(theta)
            - float(special.gammaln(1.0 + kappa))
        )
    raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")


def log_likelihood(data, model: str, params: Mapping[str, float]) -> float:
    """Sum of log densities; -inf when any point has zero density."""
    x = _as_positive_data(data)
    if model in ("q_log_normal", "mixture"):
        QParams(params["q"], params["mu"], params["sigma"])  # validate
    terms = _loglik_vector(np.log(x), model, params)
    if np.isneginf(terms).any():
        return -math.inf
    return float(terms.sum())


def model_cdf(model: str, params: Mapping[str, float]) -> Callable[[np.ndarray], np.ndarray]:
    """Distribution-function handle for a fitted model."""
    if model == "q_log_normal":
        qp = QParams(params["q"], params["mu"], params["sigma"])
        return lambda x: dist.cdf(x, qp)
    if model == "mixture":
        mp = MixtureParams(
            QParams(params["q"], params["mu"], params["sigma"]),
            params.get("f", 0.5),
        )
        return lambda x: dist.mixture_cdf(x, mp)
    if model == "log_normal":
        mu, sigma = params["mu"], params["sigma"]
        return lambda x: special.ndtr((np.log(np.asarray(x, float)) - mu) / sigma)
    if model == "gamma":
        shape, theta = 1.0 + params["kappa"], params["theta"]
        return lambda x: special.gammainc(shape, np.asarray(x, float) / theta)
    raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")


# ---------------------------------------------------------------------------
# fit reports

@dataclass(frozen=True)
class FitReport:
    model: str
    params: dict
    log_likelihood: float
    ks_distance: float
    aic: float
    n: int
    converged: bool
    trace: dict = field(default_factory=dict)


def ks_distance(data, cdf_handle) -> float:
    """Two-sided sup distance D_n = max_i max(i/n - F_(i), F_(i) - (i-1)/n)
    over the sorted sample."""
    x = np.sort(_as_finite_data(data))
    n = x.size
    f = np.asarray(cdf_handle(x), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = max(float((hi - f).max()), float((f - lo).max()))
    return min(max(d, 0.0), 1.0)


def _as_finite_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("data must be nonempty")
    if not np.isfinite(arr).all():
        raise DataError("data must be finite")
    return arr


def empirical_cdf_rss(data, cdf_handle) -> float:
    """Residual sum of squares between the empirical distribution function
    (value i/n at the i-th sorted point) and the model at the sample."""
    x = np.sort(_as_finite_data(data))
    n = x.size
    f = np.asarray(cdf_handle(x), dtype=float)
    return float(((np.arange(1, n + 1) / n - f) ** 2).sum())


def aic(k: int, n: int, rss: float) -> float:
    """Akaike criterion in the residual form 2k + n ln(RSS / n)."""
    if int(n) <= 0:
        raise DomainError("n must be positive")
    if not rss > 0.0:
        raise DomainError("rss must be positive; an exact zero is flagged")
    return 2.0 * int(k) + int(n) * math.log(rss / int(n))


def _attach_fit_metrics(model, params, data, loglik, converged, trace) -> FitReport:
    x = _as_positive_data(data)
    handle = model_cdf(model, params)
    ks = ks_distance(x, handle)
    rss = empirical_cdf_rss(x, handle)
    return FitReport(
        model=model,
        params=dict(params),
        log_likelihood=float(loglik),
        ks_distance=ks,
        aic=aic(_PARAM_COUNT[model], x.size, rss),
        n=int(x.size),
        converged=bool(converged),
        trace=dict(trace),
    )


Q_START_LATTICE = (0.7, 0.9, 1.0, 1.1, 1.3)


def fit_mle(
    data,
    model: str = "q_log_normal",
    *,
    f: float = 0.5,
    q_starts: Sequence[float] = Q_START_LATTICE,
    xatol: float = 1e-7,
    fatol: float = 1e-13,
    maxiter: int = 20000,
) -> FitReport:
    """Maximum-likelihood fit.

    q_log_normal and mixture run a simplex search on (q, mu, ln sigma),
    multi-started over q_starts with (mu, sigma) initialized from the
    moments of ln_q x at each start; the mixture holds f fixed.  log_normal
    uses the closed form (mean/SD of ln x); gamma solves the digamma
    stationarity equation.  Data must hold at least 10 strictly positive,
    non-degenerate points.
    """
    x = _as_positive_data(data)
    if x.size < 10:
        raise DataError("need at least 10 data points")
    if float(np.ptp(x)) == 0.0:
        raise DataError("degenerate data: all points equal")
    lx = np.log(x)
    n = x.size

    if model == "log_normal":
        mu = float(lx.mean())
        sigma = float(lx.std())
        params = {"mu": mu, "sigma": sigma}
        ll = log_likelihood(x, model, params)
        return _attach_fit_metrics(model, params, x, ll, True, {"method": "closed_form"})

    if model == "gamma":
        return _fit_gamma_impl(x, lx)

    if model not in ("q_log_normal", "mixture"):
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")

    fixed = {"f": float(f)} if model == "mixture" else {}

    def nll(theta: np.ndarray) -> float:
        q, mu, ls = theta
        if not (-2.0 < q < 3.0 and -20.0 < ls < 20.0 and abs(mu) < 1e6):
            return math.inf
        p = {"q": q, "mu": mu, "sigma": math.exp(ls), **fixed}
        terms = _loglik_vector(lx, model, p)
        val = float(terms.sum())
        return math.inf if not math.isfinite(val) else -val / n

    starts = []
    for q0 in q_starts:
        y0 = _qln_y(lx, q0)
        mu0 = float(y0.mean())
        s0 = max(float(y0.std()), 1e-3)
        starts.append(np.array([q0, mu0, math.log(s0)]))

    best = None
    trace_starts = []
    for theta0 in starts:
        res = optimize.minimize(
            nll,
            theta0,
            method="Nelder-Mead",
            options={
                "xatol": xatol,
                "fatol": fatol,
                "maxiter": maxiter,
                "maxfev": maxiter,
            },
        )
        trace_starts.append(
            {"q0": float(theta0[0]), "neg_mean_loglik": float(res.fun)}
        )
        if best is None or res.fun < best.fun:
            best = res
    qh, muh, lsh = best.x
    params = {"q": float(qh), "mu": float(muh), "sigma": float(math.exp(lsh)), **fixed}
    ll = log_likelihood(x, model, params)
    trace = {
        "method": "nelder_mead_multistart",
        "starts": trace_starts,
        "iterations": int(best.nit),
        "fev": int(best.nfev),
        "message": str(best.message),
    }
    return _attach_fit_metrics(model, params, x, ll, best.success, trace)


def _fit_gamma_impl(x: np.ndarray, lx: np.ndarray) -> FitReport:
    # P(B) = theta^(-1-kappa)/Gamma(1+kappa) B^kappa e^(-B/theta) is a
    # standard Gamma with shape a = 1 + kappa and scale theta; the MLE of a
    # solves ln a - psi(a) = ln(mean) - mean(ln), a strictly decreasing
    # left-hand side, so the root is bracketed and unique.
    s = math.log(float(x.mean())) - float(lx.mean())
    if not s > 0.0:
        raise DataError("degenerate data for a Gamma fit")

    def eqn(a: float) -> float:
        return math.log(a) - float(special.digamma(a)) - s

    lo, hi = 1e-8, 10.0
    while eqn(hi) > 0.0:
        hi *= 10.0
        if hi > 1e12:
            raise DataError("Gamma shape equation failed to bracket")
    a = float(optimize.brentq(eqn, lo, hi, xtol=1e-12, rtol=1e-14))
    theta = float(x.mean()) / a
    params = {"kappa": a - 1.0, "theta": theta}
    ll = log_likelihood(x, "gamma", params)
    return _attach_fit_metrics("gamma", params, x, ll, True, {"method": "digamma_equation"})


def fit_gamma(data) -> FitReport:
    """Gamma-law fit in (kappa, theta) parameterization; see fit_mle."""
    return fit_mle(data, model="gamma")


# ---------------------------------------------------------------------------
# the analytic score

def _dy_dq(lx: np.ndarray, q: float) -> np.ndarray:
    # derivative of y = (e^(u L) - 1)/u with respect to q (= -d/du), with a
    # series fallback where u L is too small for the direct form
    u = 1.0 - q
    out = np.empty_like(lx)
    if abs(u) < 1e-30:
        return -(lx**2) / 2.0
    arg = u * lx
    small = np.abs(arg) < 1e-4
    big = ~small
    e = np.exp(arg[big])
    out[big] = (e * (1.0 - arg[big]) - 1.0) / (u * u)
    ls = lx[small]
    out[small] = -(ls**2 / 2.0 + u * ls**3 / 3.0 + u * u * ls**4 / 8.0)
    return out


def score_gradient(data, params: QParams) -> np.ndarray:
    """(d/dq, d/dmu, d/dsigma) of the log-likelihood at params.

    Analytic: data terms plus the derivative of -n ln Z, the latter through
    the Normal hazard at the standardized cut.  Matches central finite
    differences to better than 1e-6 relative on interior parameters.
    """
    x = _as_positive_data(data)
    n = x.size
    q, mu, sg = params.q, params.mu, params.sigma
    lx = np.log(x)
    y = _qln_y(lx, q)
    r = (y - mu) / (sg * sg)

    if params.is_classical or abs(q - 1.0) < 1e-10:
        dlnz_dmu = 0.0
        dlnz_dsg = 1.0 / sg
        dlnz_dq = 0.0
    else:
        b = 1.0 / (q - 1.0)
        s = 1.0 if q < 1.0 else -1.0
        w = s * (mu - b) / sg
        log_mass = float(special.log_ndtr(w))
        if log_mass < -690.0:
            raise DomainError("boundary parameters: support keeps no mass")
        hazard = math.exp(-0.5 * w * w - _LN_SQRT_2PI - log_mass)
        dlnz_dmu = hazard * s / sg
        dlnz_dsg = 1.0 / sg - hazard * w / sg
        dlnz_dq = hazard * s / ((q - 1.0) ** 2 * sg)

    g_mu = float(r.sum()) - n * dlnz_dmu
    g_sg = float(((y - mu) ** 2).sum()) / sg**3 - n * dlnz_dsg
    g_q = float((-lx - r * _dy_dq(lx, q)).sum()) - n * dlnz_dq
    return np.array([g_q, g_mu, g_sg])


# ---------------------------------------------------------------------------
# KS quantile tables

@dataclass(frozen=True)
class KSTable:
    """Monte Carlo quantiles of the KS statistic for a fully specified
    one-sided law; rows map sample size to the per-level quantiles, plus
    per-level coefficients c for the large-n regime c n^(-1/2), fitted
    from pooled simulations at n in {200, 500, 1000}.  q, mu and sigma are
    metadata only: the statistic is distribution-free, so no cell depends
    on them."""

    q: float
    mu: float
    sigma: float
    levels: tuple
    ns: tuple
    rows: dict
    asymptotic_coeffs: tuple
    replicas: int
    seed: int

    def to_text(self) -> str:
        lines = [
            f"# ks-table v{TABLE_FORMAT_VERSION}",
            f"# q={self.q!r} mu={self.mu!r} sigma={self.sigma!r}",
            f"# replicas={self.replicas} seed={self.seed}",
            "n\t" + "\t".join(f"{lv:.2f}" for lv in self.levels),
        ]
        for n in self.ns:
            cells = "\t".join(f"{v:.6f}" for v in self.rows[n])
            lines.append(f"{n}\t{cells}")
        lines.append(
            "asymptotic\t" + "\t".join(f"{c:.6f}" for c in self.asymptotic_coeffs)
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KSTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# ks-table v"):
            raise DataError("not a ks-table document")
        version = int(lines[0].split("v")[-1])
        if version != TABLE_FORMAT_VERSION:
            raise DataError(f"unsupported ks-table version {version}")
        body_start = next((i for i, ln in enumerate(lines) if ln[0] != "#"), 0)
        meta = dict(
            tok.split("=", 1) for ln in lines[1:body_start] for tok in ln[1:].split()
            if "=" in tok
        )
        header = lines[body_start].split("\t")
        levels = tuple(float(t) for t in header[1:])
        cells = {}
        for ln in lines[body_start + 1:]:
            key, *vals = ln.split("\t")
            cells[key] = tuple(float(t) for t in vals)
        coeffs = cells.pop("asymptotic", None)
        if coeffs is None:
            raise DataError("ks-table missing its asymptotic row")
        rows = {int(k): v for k, v in cells.items()}
        return cls(
            q=float(meta["q"]),
            mu=float(meta["mu"]),
            sigma=float(meta["sigma"]),
            levels=levels,
            ns=tuple(rows),
            rows=rows,
            asymptotic_coeffs=coeffs,
            replicas=int(meta["replicas"]),
            seed=int(meta["seed"]),
        )


def _ks_statistic_rows(f_sorted: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # f_sorted is overwritten; out, if given, is scratch of its shape
    n = f_sorted.shape[1]
    hi = np.subtract(np.arange(1, n + 1) / n, f_sorted, out=out)
    f_sorted -= np.arange(0, n) / n
    return np.maximum(hi.max(axis=1), f_sorted.max(axis=1))


# each pool thread's two block buffers; fresh 1 MB arrays are re-faulted by the
# allocator, 2-8e4 page faults per 10^4-replica table, varying by process
_scratch = threading.local()


def _simulate_d(n: int, rows: int, rng: RngStream) -> np.ndarray:
    # under the null F(X) ~ U(0, 1): sorted uniforms are a replica's F(x_(i))
    size = rows * n
    if getattr(_scratch, "u", np.empty(0)).size < size:
        _scratch.u, _scratch.t = np.empty(size), np.empty(size)
    u = rng.uniform(size, out=_scratch.u[:size]).reshape(rows, n)
    u.sort(axis=1)
    return _ks_statistic_rows(u, out=_scratch.t[:size].reshape(rows, n))


def _rows_per_block(n: int) -> int:
    # keep per-block scratch arrays near 1e5 doubles regardless of n
    return max(1, (1 << 17) // int(n))


def ks_table_generate(
    params: QParams,
    ns: Iterable[int] = DEFAULT_NS,
    levels: Iterable[float] = DEFAULT_LEVELS,
    replicas: int = 10**5,
    seed: int = 0,
    workers: int | None = None,
    asymptotic_ns: Iterable[int] = ASYMPTOTIC_NS,
) -> KSTable:
    """Monte Carlo KS quantile table under the simple hypothesis.

    Per (n, level): the empirical level-quantile of the statistic over
    `replicas` samples of size n tested against their own continuous law:
    n sorted uniforms against the identity, as F(X) is Uniform(0, 1), so
    `params` is recorded only.  Blocks use stream id
    (n_index << 20) | block_index, so output is identical for any worker
    count; the pool has min(workers, usable CPUs, blocks) threads.
    replicas below 10^4 are refused (too few tail order statistics for the
    0.99 quantile), as are replicas needing over 2^20 blocks at some n.
    """
    ns = tuple(int(n) for n in ns)
    levels = tuple(float(v) for v in levels)
    asymptotic_ns = tuple(int(n) for n in asymptotic_ns)
    replicas = int(replicas)
    if replicas < 10**4:
        raise DataError("at least 10^4 replicas are required")
    if any(n < 1 for n in ns) or any(n <= 100 for n in asymptotic_ns):
        raise DomainError("table ns must be >= 1 and asymptotic ns > 100")
    if any(not 0.0 < v < 1.0 for v in levels) or list(levels) != sorted(levels):
        raise DomainError("levels must be increasing and strictly inside (0, 1)")
    limit = (1 << 20) * _rows_per_block(max(ns + asymptotic_ns, default=1))
    if replicas > limit:  # block index would spill out of its stream-id field
        raise DataError(f"at most {limit} replicas fit the stream ids for these ns")

    jobs = []
    for idx, n in enumerate(ns + asymptotic_ns):
        rpb = _rows_per_block(n)
        nblocks = (replicas + rpb - 1) // rpb
        for blk in range(nblocks):
            rows = min(rpb, replicas - blk * rpb)
            sid = (idx << 20) | blk
            jobs.append((idx, n, rows, sid))

    def run(job):
        idx, n, rows, sid = job
        return idx, _simulate_d(n, rows, RngStream(seed, sid))

    buckets: dict[int, list[np.ndarray]] = {i: [] for i in range(len(ns + asymptotic_ns))}
    with ThreadPoolExecutor(max_workers=_effective_workers(workers, len(jobs))) as pool:
        for idx, d in pool.map(run, jobs):
            buckets[idx].append(d)

    rows_out = {}
    for idx, n in enumerate(ns):
        d = np.concatenate(buckets[idx])
        rows_out[n] = tuple(float(v) for v in np.quantile(d, levels))
    pool_scaled = [
        math.sqrt(n) * np.concatenate(buckets[len(ns) + j])
        for j, n in enumerate(asymptotic_ns)
    ]
    coeffs = tuple(float(v) for v in np.quantile(np.concatenate(pool_scaled), levels))
    return KSTable(
        q=params.q,
        mu=params.mu,
        sigma=params.sigma,
        levels=levels,
        ns=ns,
        rows=rows_out,
        asymptotic_coeffs=coeffs,
        replicas=replicas,
        seed=int(seed),
    )


@dataclass(frozen=True)
class PValueBracket:
    """Bounds on P(D >= d) under the null, read off a quantile table."""

    p_lower: float
    p_upper: float
    note: str


def ks_pvalue_lookup(table: KSTable, n: int, d: float) -> PValueBracket:
    """Bracket the significance of an observed distance using the table.

    Exact rows are used as-is; n between rows interpolates linearly per
    level (documented as approximate); n above the last row uses the
    asymptotic coefficients c n^(-1/2).
    """
    if not 0.0 <= d <= 1.0:
        raise DomainError("d must lie in [0, 1]")
    n = int(n)
    ns = sorted(table.ns)
    if n in table.rows:
        qs = np.asarray(table.rows[n], dtype=float)
        note = "table row"
    elif n > ns[-1]:
        qs = np.asarray(table.asymptotic_coeffs, dtype=float) / math.sqrt(n)
        note = "asymptotic row"
    elif n < ns[0]:
        raise DataError(f"table does not cover n = {n}")
    else:
        hi = min(m for m in ns if m > n)
        lo = max(m for m in ns if m < n)
        w = (n - lo) / (hi - lo)
        qs = (1.0 - w) * np.asarray(table.rows[lo]) + w * np.asarray(table.rows[hi])
        note = f"interpolated between n={lo} and n={hi} (approximate)"
    levels = table.levels
    if d < qs[0]:
        return PValueBracket(1.0 - levels[0], 1.0, note)
    for i in range(len(levels) - 1, -1, -1):
        if d >= qs[i]:
            upper = 1.0 - levels[i]
            lower = 1.0 - levels[i + 1] if i + 1 < len(levels) else 0.0
            return PValueBracket(lower, upper, note)
    raise AssertionError("unreachable")
