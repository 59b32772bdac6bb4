import math
import os

import numpy as np
import pytest
from scipy import stats
from scipy.special import kolmogi

from qlognorm import (
    DataError,
    DomainError,
    KSTable,
    MixtureParams,
    PValueBracket,
    QParams,
    RngStream,
    aic,
    cdf,
    empirical_cdf_rss,
    fit_gamma,
    fit_mle,
    ks_distance,
    ks_pvalue_lookup,
    ks_table_generate,
    log_likelihood,
    log_pdf,
    mixture_pdf,
    q_exp,
    sample_mixture,
    sample_qlognormal,
    sample_truncnorm,
    score_gradient,
    truncnorm_from_q,
)
from qlognorm.infer import (
    _effective_workers,
    _ks_statistic_rows,
    _rows_per_block,
    _simulate_d,
)


# --- likelihood --------------------------------------------------------------

def test_loglik_matches_density_sum():
    x = sample_qlognormal(QParams(1.25), 500, RngStream(1))
    got = log_likelihood(x, "q_log_normal", {"q": 1.25, "mu": 0.0, "sigma": 1.0})
    want = float(np.sum(log_pdf(x, QParams(1.25))))
    assert got == pytest.approx(want, rel=1e-12)


def test_loglik_mixture_matches_density_sum():
    m = MixtureParams(QParams(1.22, 0.391, 1.15), 0.3)
    x = sample_mixture(m, 400, RngStream(2))
    got = log_likelihood(x, "mixture", {"q": 1.22, "mu": 0.391, "sigma": 1.15, "f": 0.3})
    want = float(np.sum(np.log(mixture_pdf(x, m))))
    assert got == pytest.approx(want, rel=1e-12)


def test_loglik_baselines_match_scipy():
    x = np.array([0.5, 1.2, 3.4, 0.9, 2.2])
    got = log_likelihood(x, "log_normal", {"mu": 0.3, "sigma": 0.9})
    want = stats.lognorm.logpdf(x, s=0.9, scale=math.exp(0.3)).sum()
    assert got == pytest.approx(want, rel=1e-12)
    got = log_likelihood(x, "gamma", {"kappa": 1.5, "theta": 0.8})
    want = stats.gamma.logpdf(x, a=2.5, scale=0.8).sum()
    assert got == pytest.approx(want, rel=1e-12)


def test_loglik_guards():
    with pytest.raises(DataError):
        log_likelihood([], "log_normal", {"mu": 0.0, "sigma": 1.0})
    with pytest.raises(DataError):
        log_likelihood([1.0, -2.0], "log_normal", {"mu": 0.0, "sigma": 1.0})
    with pytest.raises(DomainError):
        log_likelihood([1.0], "no_such_model", {})


# --- fitting -----------------------------------------------------------------

def test_fit_log_normal_closed_form():
    x = sample_qlognormal(QParams(1.0, 0.4, 0.7), 3000, RngStream(3))
    rep = fit_mle(x, model="log_normal")
    assert rep.converged
    assert rep.params["mu"] == pytest.approx(np.log(x).mean(), rel=1e-13)
    assert rep.params["sigma"] == pytest.approx(np.log(x).std(), rel=1e-13)


def test_fit_gamma_matches_scipy_mle():
    x = np.random.default_rng(9).gamma(shape=2.5, scale=1.7, size=5000)
    rep = fit_gamma(x)
    a, _, theta = stats.gamma.fit(x, floc=0)
    assert rep.params["kappa"] + 1.0 == pytest.approx(a, rel=1e-6)
    assert rep.params["theta"] == pytest.approx(theta, rel=1e-6)


def test_fit_recovers_deformed_parameters():
    p = QParams(1.25, 0.0, 1.0)
    x = sample_qlognormal(p, 4000, RngStream(4))
    rep = fit_mle(x, model="q_log_normal")
    assert rep.converged
    assert rep.params["q"] == pytest.approx(1.25, abs=0.08)
    assert rep.params["mu"] == pytest.approx(0.0, abs=0.08)
    assert rep.params["sigma"] == pytest.approx(1.0, abs=0.08)


def test_fit_mixture_recovery():
    m = MixtureParams(QParams(1.22, 0.391, 1.15), 0.5)
    x = sample_mixture(m, 5000, RngStream(55))
    rep = fit_mle(x, model="mixture", f=0.5)
    assert rep.params["f"] == 0.5  # held fixed
    assert rep.params["q"] == pytest.approx(1.22, abs=0.1)
    assert rep.params["mu"] == pytest.approx(0.391, abs=0.1)
    assert rep.params["sigma"] == pytest.approx(1.15, abs=0.1)


def test_fit_report_is_self_consistent():
    x = sample_qlognormal(QParams(0.8), 1000, RngStream(5))
    rep = fit_mle(x, model="q_log_normal")
    assert rep.n == 1000
    assert rep.log_likelihood == pytest.approx(
        log_likelihood(x, "q_log_normal", rep.params), rel=1e-12
    )
    assert rep.trace["starts"]
    assert math.isfinite(rep.aic)


def test_fit_guards():
    with pytest.raises(DataError):
        fit_mle([1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        fit_mle([2.0] * 50)
    with pytest.raises(DataError):
        fit_mle(np.linspace(-1, 1, 50))


# --- the analytic score ---------------------------------------------------------

@pytest.mark.parametrize("q,mu,sigma", [(0.8, 0.0, 1.0), (1.25, -0.2, 0.7),
                                        (0.95, 0.5, 1.4)])
def test_score_matches_finite_differences(q, mu, sigma):
    x = sample_qlognormal(QParams(q, mu, sigma), 300, RngStream(6))
    g = score_gradient(x, QParams(q, mu, sigma))

    def ll(qq, mm, ss):
        return log_likelihood(x, "q_log_normal", {"q": qq, "mu": mm, "sigma": ss})

    h = 1e-6
    fd = np.array([
        (ll(q + h, mu, sigma) - ll(q - h, mu, sigma)) / (2 * h),
        (ll(q, mu + h, sigma) - ll(q, mu - h, sigma)) / (2 * h),
        (ll(q, mu, sigma + h) - ll(q, mu, sigma - h)) / (2 * h),
    ])
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-7


def test_score_continuous_at_classical_point():
    x = sample_qlognormal(QParams(1.0), 500, RngStream(7))
    g0 = score_gradient(x, QParams(1.0))
    gp = score_gradient(x, QParams(1.0 + 1e-9))
    gm = score_gradient(x, QParams(1.0 - 1e-9))
    assert np.allclose(g0, gp, rtol=1e-5, atol=1e-4)
    assert np.allclose(g0, gm, rtol=1e-5, atol=1e-4)


# --- AIC / KS ---------------------------------------------------------------------

def test_aic_formula():
    assert aic(3, 100, 0.5) == pytest.approx(6.0 + 100.0 * math.log(0.005), rel=1e-14)
    with pytest.raises(DomainError):
        aic(2, 0, 0.5)
    with pytest.raises(DomainError):
        aic(2, 100, 0.0)


def test_empirical_cdf_rss():
    data = [1.0, 2.0, 3.0]
    rss = empirical_cdf_rss(data, lambda x: np.asarray(x) / 4.0)
    want = (1 / 3 - 0.25) ** 2 + (2 / 3 - 0.5) ** 2 + (1.0 - 0.75) ** 2
    assert rss == pytest.approx(want, rel=1e-13)


def test_ks_distance_hand_example():
    d = ks_distance([1.0, 2.0, 3.0], lambda x: np.asarray(x) / 4.0)
    assert d == pytest.approx(0.25, rel=1e-13)


# --- Monte Carlo tables -------------------------------------------------------------

def test_table_worker_count_invariance():
    p = QParams(0.8)
    kw = dict(ns=(5, 10), levels=(0.8, 0.95), replicas=10**4, seed=3)
    assert ks_table_generate(p, workers=1, **kw) == ks_table_generate(
        p, workers=4, **kw
    )


def test_table_guards():
    with pytest.raises(DataError):
        ks_table_generate(QParams(0.8), replicas=5000)
    with pytest.raises(DomainError):
        ks_table_generate(QParams(0.8), levels=(0.9, 0.8), replicas=10**4)
    with pytest.raises(DomainError):
        ks_table_generate(QParams(0.8), asymptotic_ns=(50,), replicas=10**4)


def test_table_rows_increase_with_level():
    t = ks_table_generate(QParams(1.25), ns=(5, 20), replicas=10**4, seed=1)
    for n in t.ns:
        assert list(t.rows[n]) == sorted(t.rows[n])


def test_table_text_roundtrip():
    t = ks_table_generate(QParams(0.8), ns=(5,), replicas=10**4, seed=2)
    text = t.to_text()
    assert text.startswith("# ks-table v1")
    back = KSTable.from_text(text)
    assert back.to_text() == text
    assert back.q == 0.8 and back.replicas == 10**4 and back.seed == 2
    with pytest.raises(DataError):
        KSTable.from_text("not a table\n1\t2\n")


def test_table_matches_exact_finite_sample_law():
    # the statistic is distribution-free, so the exact law of D_n is the
    # correctness oracle for the whole simulate-sort-compare pipeline
    t = ks_table_generate(QParams(0.8), ns=(5, 20), replicas=2 * 10**4, seed=9)
    for n in t.ns:
        exact = [float(stats.kstwo(n).ppf(lv)) for lv in t.levels]
        assert np.max(np.abs(np.array(t.rows[n]) - exact)) < 0.0075


def test_table_asymptotic_coefficients_near_limit_law():
    t = ks_table_generate(QParams(1.25), ns=(5,), replicas=10**4, seed=4)
    lim = [float(kolmogi(1.0 - lv)) for lv in t.levels]
    # pooled finite-n quantiles approach the limit from slightly below;
    # the 0.99 level is the noisiest at this replica count
    assert np.max(np.abs(np.array(t.asymptotic_coeffs) - lim)) < 0.03


def _old_chain_d(params, n, rows, rng):
    # the distribution path the tables used to take: uniforms mapped to the
    # law, then pushed back through its cdf before sorting
    y = sample_truncnorm(truncnorm_from_q(params), rows * n, rng).reshape(rows, n)
    f = np.asarray(cdf(q_exp(y, params.q), params))
    f.sort(axis=1)
    return _ks_statistic_rows(f)


@pytest.mark.parametrize("params", [QParams(0.8), QParams(1.25, mu=2.0, sigma=0.3)])
def test_simulated_statistic_matches_distribution_path(params):
    for n, rows, sid in ((5, 300, 0), (50, 200, 7), (200, 40, (2 << 20) | 3)):
        old = _old_chain_d(params, n, rows, RngStream(11, sid))
        new = _simulate_d(n, rows, RngStream(11, sid))
        assert new.shape == (rows,)
        assert np.max(np.abs(new - old)) < 1e-12


def test_reused_block_buffers_give_fresh_results():
    # a thread's block buffers outlive its blocks: a smaller block after a
    # larger one must see none of the larger one's draws
    for n, rows in ((5, _rows_per_block(5)), (1000, 7), (1000, _rows_per_block(1000))):
        u = RngStream(3, n).uniform(rows * n).reshape(rows, n)
        u.sort(axis=1)
        assert np.array_equal(_simulate_d(n, rows, RngStream(3, n)), _ks_statistic_rows(u))


def test_table_cells_do_not_depend_on_params():
    kw = dict(ns=(5, 30), replicas=10**4, seed=6)
    a = ks_table_generate(QParams(0.8), **kw)
    b = ks_table_generate(QParams(1.25, mu=2.0, sigma=0.3), **kw)
    assert a.rows == b.rows
    assert a.asymptotic_coeffs == b.asymptotic_coeffs
    assert (a.q, b.q, b.mu, b.sigma) == (0.8, 1.25, 2.0, 0.3)


def test_worker_count_is_capped(monkeypatch):
    # the helper only computes a number; no pool is started here
    monkeypatch.delenv("QLOGNORM_THREADS", raising=False)
    cpus = os.cpu_count() or 1
    assert 1 <= _effective_workers(10**6) <= cpus
    assert _effective_workers(10**6, njobs=1) == 1
    assert _effective_workers(None, njobs=10**6) <= cpus
    assert _effective_workers(0) >= 1 and _effective_workers(-3) == 1
    monkeypatch.setenv("QLOGNORM_THREADS", "1")
    assert _effective_workers(10**6) == 1
    monkeypatch.setenv("QLOGNORM_THREADS", "not a number")
    assert _effective_workers(1) == 1


def test_table_refuses_replicas_beyond_stream_ids():
    # 2*10^6 one-row blocks at n = 10^6 would overflow the 20-bit block field
    with pytest.raises(DataError):
        ks_table_generate(QParams(0.8), asymptotic_ns=(10**6,), replicas=2 * 10**6)
    # at n = 1000, 131 rows per block: the limit is 131 * 2^20 replicas
    with pytest.raises(DataError):
        ks_table_generate(QParams(0.8), replicas=131 * 2**20 + 1)


# --- p-value brackets ------------------------------------------------------------------

TABLE = KSTable(
    q=1.0, mu=0.0, sigma=1.0,
    levels=(0.80, 0.90, 0.95),
    ns=(10, 20),
    rows={10: (0.35, 0.41, 0.46), 20: (0.25, 0.29, 0.33)},
    asymptotic_coeffs=(1.07, 1.22, 1.36),
    replicas=10**4, seed=0,
)


def test_pvalue_bracket_semantics():
    br = ks_pvalue_lookup(TABLE, 10, 0.30)
    assert isinstance(br, PValueBracket)
    assert br.note == "table row"
    assert (br.p_lower, br.p_upper) == (pytest.approx(0.2), 1.0)
    br = ks_pvalue_lookup(TABLE, 10, 0.42)
    assert (br.p_lower, br.p_upper) == (pytest.approx(0.05), pytest.approx(0.10))
    br = ks_pvalue_lookup(TABLE, 10, 0.50)
    assert (br.p_lower, br.p_upper) == (0.0, pytest.approx(0.05))


def test_pvalue_interpolation_and_asymptotics():
    br = ks_pvalue_lookup(TABLE, 15, 0.36)
    assert br.note.startswith("interpolated")
    br = ks_pvalue_lookup(TABLE, 400, 1.22 / 20.0 + 1e-9)
    assert br.note == "asymptotic row"
    assert (br.p_lower, br.p_upper) == (pytest.approx(0.05), pytest.approx(0.10))


def test_pvalue_guards():
    with pytest.raises(DataError):
        ks_pvalue_lookup(TABLE, 5, 0.3)
    with pytest.raises(DomainError):
        ks_pvalue_lookup(TABLE, 10, 1.5)
