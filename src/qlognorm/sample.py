"""Seedable variate generation and the generalized multiplicative cascade.

Sampling is inverse-transform throughout: a uniform variate is mapped
affinely into the erf-range of the kept half line and pushed through
erf_inv (truncated Normal), then through the deformed exponential
(one-sided law), with a branch toss on top for the mixture.  No rejection
steps, so draw counts are exact and streams are reproducible.

Streams are counter-based (Philox) keyed by (seed, stream_id): identical
keys give identical sequences on every platform, and distinct stream ids
give statistically independent streams.  Ensemble work partitions replicas
across stream ids and merges them in index order, which makes results
independent of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy import special

from .dist import QParams, Side, TruncatedNormalParams, truncnorm_from_q
from .errors import DataError, DivergenceError, DomainError
from .qalgebra import (
    DIVERGENCE_RTOL,
    Q_CLASSICAL_EPS,
    QProductOutcome,
    Region,
    q_exp,
)

__all__ = [
    "RngStream",
    "UniformBase",
    "QLogNormalBase",
    "CascadeConfig",
    "sample_truncnorm",
    "sample_qlognormal",
    "sample_mixture",
    "cascade_run",
    "compact_image_pdf",
    "compact_image_variance",
    "levy_alpha",
    "hill_tail_estimate",
]

_SQRT2 = math.sqrt(2.0)
_U64 = (1 << 64) - 1


class RngStream:
    """Counter-based uniform source keyed by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _U64
        self.stream_id = int(stream_id) & _U64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n draws on the open interval (0, 1), written into `out` if given."""
        if n < 0:
            raise DomainError("n must be nonnegative")
        u = self._gen.random(int(n), out=out)
        np.copyto(u, 2.0**-53, where=u == 0.0)  # nudge [0, 1) to (0, 1)
        return u

    def substream(self, stream_id: int) -> "RngStream":
        """A fresh stream with the same seed and a different id."""
        return RngStream(self.seed, stream_id)


def _mapped_uniform_to_y(u: np.ndarray, tn: TruncatedNormalParams) -> np.ndarray:
    # Affine map of u in (0,1) onto the erf-range of the kept half line,
    # then y = mu + sqrt(2) sigma erf_inv(u').
    eb = special.erf(tn.scaled_edge)
    if tn.side is Side.LEFT_TRUNCATED:
        up = eb + u * (1.0 - eb)
    else:
        up = -1.0 + u * (1.0 + eb)
    up = np.clip(up, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))
    return tn.mu + _SQRT2 * tn.sigma * special.erfinv(up)


def sample_truncnorm(params: TruncatedNormalParams, n: int, rng: RngStream) -> np.ndarray:
    """n draws from the one-side-truncated Normal by inverse transform."""
    return _mapped_uniform_to_y(rng.uniform(n), params)


def sample_qlognormal(params: QParams, n: int, rng: RngStream) -> np.ndarray:
    """n positive draws: sample y from the truncated Normal, push through
    the deformed exponential."""
    y = sample_truncnorm(truncnorm_from_q(params), n, rng)
    return np.asarray(q_exp(y, params.q))


def sample_mixture(mp, n: int, rng: RngStream) -> np.ndarray:
    """Each draw picks the q branch with probability f, else the 2-q
    branch, then samples that branch by inverse transform."""
    sel = rng.uniform(n) < mp.f
    u = rng.uniform(n)
    out = np.empty(int(n), dtype=float)
    for mask, qp in ((sel, mp.base), (~sel, mp.dual)):
        if mask.any():
            y = _mapped_uniform_to_y(u[mask], truncnorm_from_q(qp))
            out[mask] = q_exp(y, qp.q)
    return out


@dataclass(frozen=True)
class UniformBase:
    """Factors drawn uniformly on (0, b)."""

    b: float = 1.0

    def __post_init__(self) -> None:
        if not (float(self.b) > 0.0) or math.isinf(self.b):
            raise DomainError("uniform base needs finite b > 0")

    def draw(self, rng: RngStream, n: int) -> np.ndarray:
        return self.b * rng.uniform(n)


@dataclass(frozen=True)
class QLogNormalBase:
    """Factors drawn from a one-sided deformed log-Normal."""

    params: QParams

    def draw(self, rng: RngStream, n: int) -> np.ndarray:
        return sample_qlognormal(self.params, n, rng)


BaseSampler = Callable[[RngStream, int], np.ndarray]


@dataclass(frozen=True)
class CascadeConfig:
    """A deformed multiplicative process: the N-fold product of iid
    positive factors, repeated over an ensemble.

    base may be UniformBase, QLogNormalBase, or any callable
    (rng, n) -> positive draws.
    """

    q: float
    n_factors: int
    base: Union[UniformBase, QLogNormalBase, BaseSampler] = field(
        default_factory=UniformBase
    )
    ensemble_size: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", float(self.q))
        if not math.isfinite(self.q):
            raise DomainError("q must be finite")
        if int(self.n_factors) < 1:
            raise DomainError("n_factors must be >= 1")
        if int(self.ensemble_size) < 1:
            raise DomainError("ensemble_size must be >= 1")
        object.__setattr__(self, "n_factors", int(self.n_factors))
        object.__setattr__(self, "ensemble_size", int(self.ensemble_size))

    def draw_factors(self, rng: RngStream, n: int) -> np.ndarray:
        if hasattr(self.base, "draw"):
            return self.base.draw(rng, n)
        return np.asarray(self.base(rng, n), dtype=float)


def cascade_run(config: CascadeConfig, rng: RngStream) -> list[QProductOutcome]:
    """One outcome per ensemble member: the N-fold deformed product of iid
    base draws, with cut-off and divergence events absorbing exactly as in
    the scalar fold.

    Internally the fold is vectorized through the additivity of
    t = x^(1-q): the running constraint value after k factors is
    S_k = sum_(i<=k) t_i - (k-1), and the first k at which S_k crosses the
    cut-off (or lands in the q>1 divergence band) decides the region.
    """
    ens, nf, q = config.ensemble_size, config.n_factors, config.q
    draws = config.draw_factors(rng, ens * nf)
    draws = np.asarray(draws, dtype=float).reshape(ens, nf)
    if np.isnan(draws).any() or (draws < 0).any():
        raise DataError("cascade base draws must be nonnegative and finite")

    if abs(1.0 - q) < Q_CLASSICAL_EPS:
        vals = np.prod(draws, axis=1)
        return [QProductOutcome(float(v), Region.REGULAR) for v in vals]
    if nf == 1:
        # a single factor is the base draw itself, no constraint applies
        return [QProductOutcome(float(v), Region.REGULAR) for v in draws[:, 0]]

    u = 1.0 - q
    with np.errstate(divide="ignore", over="ignore"):
        t = draws**u
        t[draws == 0.0] = 0.0 if u > 0 else np.inf
    svals = np.cumsum(t, axis=1) - np.arange(nf)[None, :]
    region = np.zeros(ens, dtype=np.uint8)  # 0 regular, 1 cutoff, 2 divergent
    if nf > 1:
        steps = svals[:, 1:]  # constraint applies from the first binary fold on
        if q < 1.0:
            cut = steps <= 0.0
            hit = cut.any(axis=1)
            region[hit] = 1
        else:
            band = DIVERGENCE_RTOL * np.maximum(1.0, steps + 1.0)
            div = np.isfinite(steps) & (np.abs(steps) <= band)
            cut = steps < -band
            ev = div | cut
            hit = ev.any(axis=1)
            rows = np.nonzero(hit)[0]
            first = np.argmax(ev[rows], axis=1)
            region[rows] = np.where(div[rows, first], 2, 1)

    s_final = svals[:, -1]
    values = np.zeros(ens, dtype=float)
    ok = region == 0
    with np.errstate(divide="ignore", over="ignore"):
        values[ok] = np.exp(np.log(s_final[ok]) / u)
    values[region == 2] = np.inf
    reg_map = {0: Region.REGULAR, 1: Region.CUTOFF_ZERO, 2: Region.DIVERGENT}
    return [
        QProductOutcome(float(v), reg_map[int(r)]) for v, r in zip(values, region)
    ]


def compact_image_pdf(y, q: float, b: float):
    """Density of ln_q(U) for U uniform on (0, b): the exact pushforward
    p'(y) = (1/b) [1 + (1-q) y]^(q/(1-q)), supported on
    [-1/(1-q), ln_q b] for q < 1 and (-inf, ln_q b] for q > 1."""
    q = float(q)
    b = float(b)
    if not (b > 0.0) or math.isinf(b) or not math.isfinite(q):
        raise DomainError("need finite q and b > 0")
    arr = np.asarray(y, dtype=float)
    if arr.size and np.isnan(arr).any():
        raise DomainError("y must not contain NaN")
    if abs(1.0 - q) < Q_CLASSICAL_EPS:
        if (arr > math.log(b)).any():
            raise DomainError("y outside the support of the transform")
        out = np.exp(arr) / b
        return float(out) if np.ndim(y) == 0 else out
    w = 1.0 + (1.0 - q) * arr
    w_edge = b ** (1.0 - q)
    if q < 1.0:
        inside = (w >= 0.0) & (w <= w_edge)
    else:
        inside = w >= w_edge
    if not inside.all():
        raise DomainError("y outside the support of the transform")
    with np.errstate(divide="ignore"):
        out = np.power(w, q / (1.0 - q)) / b
    return float(out) if np.ndim(y) == 0 else out


def compact_image_variance(q: float, b: float) -> float:
    """Closed-form variance of ln_q(U), U uniform on (0, b):
    b^(2-2q) / ((3-2q)(2-q)^2), finite only for q < 3/2."""
    q = float(q)
    b = float(b)
    if not (b > 0.0) or math.isinf(b) or not math.isfinite(q):
        raise DomainError("need finite q and b > 0")
    if q >= 1.5:
        raise DivergenceError("the image variance diverges for q >= 3/2")
    return b ** (2.0 - 2.0 * q) / ((3.0 - 2.0 * q) * (2.0 - q) ** 2)


def levy_alpha(q: float) -> float:
    """Tail exponent 1/(q-1) of the heavy-tailed attractor regime; defined
    for q > 3/2, where it ranges over (0, 2)."""
    q = float(q)
    if not math.isfinite(q) or q <= 1.5:
        raise DomainError("the tail exponent is defined for q > 3/2")
    return 1.0 / (q - 1.0)


def hill_tail_estimate(samples, k: int) -> float:
    """Standard Hill estimator of a power tail index from the k largest
    order statistics: 1 / mean(ln(X_(i) / X_(k+1)), i = 1..k)."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    k = int(k)
    if n < 1 or not 10 <= k <= n // 10:
        raise DataError("insufficient data: need 10 <= k <= n/10")
    if np.isnan(arr).any() or (arr <= 0).any():
        raise DataError("samples must be positive")
    top = np.sort(arr)[::-1][: k + 1]
    return float(1.0 / np.mean(np.log(top[:k] / top[k])))
