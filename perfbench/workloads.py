"""The workloads: seeded inputs, the CLI argv of one op, and its checks.

`ks_table` runs the KS-table path.  `cli_mix` runs three parts in each op:
`fit_rank`, `sample_cascade` and `eval_points`.

An op is one unit of closed-loop work.  A workload's `clients` run
processes each run one op per round, all at once, each pinned to its own
CPU when there is more than one.  Op i of a run gets its own seed,
derived from the run's --seed and i, so a run averages over inputs and
the same --seed always yields the same inputs.  Every input (argv, grids,
the fit CSV) is made before the op is timed, and every check runs after
it, outside the timed region, against `oracles`.

Each workload has a full size, used by runs, and a tiny one, used by the
smoke test.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from oracles import cdf, draw, hill, ks_quantiles, pdf, q_log, raw_moments, y_cdf

# KS tables: the program's defaults, copied so the oracle can be built
# without importing the code under test
TABLE_NS = tuple(range(5, 51, 5)) + tuple(range(60, 101, 10))
TABLE_LEVELS = (0.80, 0.85, 0.90, 0.95, 0.99)
TABLE_ASYMPTOTIC_NS = (200, 500, 1000)
MODELS = ("q_log_normal", "mixture", "log_normal", "gamma")


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Op:
    commands: list            # argv lists for qlognorm.cli.main
    stdout: list              # one capture file per command
    outputs: list             # files the op writes, for cli.out_bytes
    items: int                # work units, see the workload's `item`
    ctx: dict = field(default_factory=dict)


def _read_values(path):
    return np.loadtxt(path, comments="#", dtype=float, ndmin=1)


def _header(path) -> dict:
    meta = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
    return meta


def _stratified(rng, lo, hi, n):
    """n sorted points, one uniform draw in each of n equal cells."""
    return lo + (np.arange(n) + rng.random(n)) * (hi - lo) / n


class KsTable:
    """`table --q 0.8` with the default ns and levels on nproc workers."""

    name = "ks_table"
    item = "replicas"
    clients = 1  # the op itself runs on nproc threads
    sizes = {"full": {"replicas": 10**4}, "tiny": {"replicas": 10**4}}
    q = 0.8

    def __init__(self, size):
        self.replicas = self.sizes[size]["replicas"]
        self.workers = nproc()

    def prepare(self):
        self.exact, self.asym = ks_quantiles(
            TABLE_NS, TABLE_LEVELS, self.replicas, TABLE_ASYMPTOTIC_NS
        )

    def make_op(self, seed, opdir):
        out = str(opdir / "table.txt")
        argv = ["table", "--q", repr(self.q), "--replicas", str(self.replicas),
                "--seed", str(seed), "--workers", str(self.workers), "--out", out]
        return Op([argv], [str(opdir / "stdout.txt")], [out], self.replicas,
                  {"out": out, "seed": seed})

    def check(self, op, tally):
        meta = _header(op.ctx["out"])
        problems = []
        if (float(meta.get("q", "nan")), int(meta.get("replicas", -1)),
                int(meta.get("seed", -1))) != (self.q, self.replicas, op.ctx["seed"]):
            problems.append(f"table header {meta} does not echo the request")
        with open(op.ctx["out"], encoding="utf-8") as fh:
            body = [ln.split("\t") for ln in fh if not ln.startswith("#")]
        levels = tuple(float(t) for t in body[0][1:])
        if levels != TABLE_LEVELS:
            problems.append(f"levels {levels}")
        rows = {r[0]: np.array([float(t) for t in r[1:]]) for r in body[1:]}
        for n in TABLE_NS:
            got = rows.get(str(n))
            want, se = self.exact[n]
            if got is None or got.shape != want.shape:
                problems.append(f"row n={n} missing")
            elif (np.abs(got - want) > 6.0 * se).any():
                problems.append(f"row n={n}: {got} vs kstwo {want} (6 SE {6 * se})")
        got = rows.get("asymptotic")
        want, se = self.asym
        if got is None or (np.abs(got - want) > 6.0 * se).any():
            problems.append(f"asymptotic row {got} vs pooled kstwo {want}")
        return problems


class FitRank:
    """`fit` with all four models on a seeded CSV of q = 1.25 draws."""

    name = "fit_rank"
    sizes = {"full": {"n": 10**4}, "tiny": {"n": 1000}}
    q, mu, sigma = 1.25, 0.0, 1.0

    def __init__(self, size):
        self.n = self.sizes[size]["n"]

    def prepare(self):
        pass

    def make_op(self, seed, opdir):
        data = opdir / "data.csv"
        x = draw(self.q, self.mu, self.sigma, self.n, seed)
        data.write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        out = str(opdir / "fit.json")
        argv = ["fit", str(data), "--seed", str(seed), "--out", out]
        return Op([argv], [str(opdir / "stdout.txt")], [out, out + ".cdf.tsv"],
                  self.n * len(MODELS), {"out": out})

    def check(self, op, tally):
        problems = []
        with open(op.ctx["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        fits = {f["model"]: f for f in doc["fits"]}
        for m in MODELS:
            f = fits.get(m)
            if f is None or "error" in f:
                problems.append(f"model {m} failed: {f}")
            elif not f["converged"]:
                problems.append(f"model {m} did not converge")
        if sorted(doc["ranking"]) != sorted(MODELS):
            problems.append(f"ranking {doc['ranking']}")
        p = fits.get("q_log_normal", {}).get("params")
        # tolerances are about 6 standard errors at this n
        scale = math.sqrt(10**4 / self.n)
        if p and not (abs(p["q"] - self.q) < 0.06 * scale
                      and abs(p["mu"] - self.mu) < 0.06 * scale
                      and abs(p["sigma"] / self.sigma - 1.0) < 0.06 * scale):
            problems.append(f"q_log_normal fit {p} far from the generating law")
        table = np.loadtxt(op.ctx["out"] + ".cdf.tsv", comments="#", skiprows=2, ndmin=2)
        if table.shape != (self.n, 2 + len(MODELS)):
            problems.append(f"cdf table shape {table.shape}")
        else:
            femp = np.arange(1, self.n + 1) / self.n
            cols = table[:, 2:]
            if (np.abs(table[:, 1] - femp) > 1e-9).any():
                problems.append("F_emp column is not i/n")
            if (cols < 0).any() or (cols > 1).any() or (np.diff(cols, axis=0) < -1e-12).any():
                problems.append("a fitted CDF column leaves [0, 1] or decreases")
        return problems


class SampleCascade:
    """`sample --q 1.25` then the supercritical `cascade --q 1.75`."""

    name = "sample_cascade"
    sizes = {
        "full": {"n": 10**6, "ensemble": 10**5, "members": 64},
        "tiny": {"n": 2 * 10**4, "ensemble": 2000, "members": 16},
    }
    q_sample, q_cascade, n_factors = 1.25, 1.75, 100

    def __init__(self, size):
        s = self.sizes[size]
        self.n, self.ensemble, self.members = s["n"], s["ensemble"], s["members"]

    def prepare(self):
        self.y_cdf = y_cdf(self.q_sample, 0.0, 1.0)

    def make_op(self, seed, opdir):
        s_out, c_out = str(opdir / "sample.txt"), str(opdir / "cascade.txt")
        sample = ["sample", "--q", repr(self.q_sample), "--n", str(self.n),
                  "--seed", str(seed), "--out", s_out]
        cascade = ["cascade", "--q", repr(self.q_cascade), "--n-factors",
                   str(self.n_factors), "--ensemble", str(self.ensemble),
                   "--seed", str(seed + 1), "--out", c_out]
        stdout = [str(opdir / "sample.stdout"), str(opdir / "cascade.stdout")]
        return Op([sample, cascade], stdout, [s_out, c_out] + stdout,
                  self.n + self.ensemble,
                  {"sample": s_out, "cascade": c_out, "summary": stdout[1],
                   "seed": seed})

    def check(self, op, tally):
        from scipy import stats
        from qlognorm import RngStream, Region, q_product_n

        problems = []
        x = _read_values(op.ctx["sample"])
        if x.size != self.n or not (np.isfinite(x).all() and (x > 0).all()):
            problems.append(f"sample: {x.size} values, or some not finite positive")
        else:
            ks = stats.kstest(q_log(x, self.q_sample), self.y_cdf)
            if ks.pvalue < 1e-6:
                problems.append(f"sample fails KS against truncnorm: {ks}")

        values = _read_values(op.ctx["cascade"])
        meta = _header(op.ctx["cascade"])
        n_cut, n_div = int(meta["cutoff_count"]), int(meta["divergent_count"])
        tally["cutoff_count"] = n_cut
        tally["divergent_count"] = n_div
        regular = int((np.isfinite(values) & (values > 0)).sum())
        if values.size != self.ensemble or regular + n_cut + n_div != self.ensemble:
            problems.append(f"cascade regions {regular}+{n_cut}+{n_div} != {self.ensemble}")
        if int((values == 0).sum()) != n_cut or int(np.isinf(values).sum()) != n_div:
            problems.append("cascade header counts disagree with the values")

        # replay a subset of members through the scalar fold, with the
        # uniform factors regenerated from the public stream in chunks
        rng = np.random.Generator(np.random.PCG64(op.ctx["seed"]))
        members = np.sort(rng.choice(self.ensemble, self.members, replace=False))
        stream = RngStream(op.ctx["seed"] + 1)
        chunk = max(1, 10**6 // self.n_factors)
        done = 0
        for m in members:
            while done + chunk <= m:
                stream.uniform(chunk * self.n_factors)
                done += chunk
            stream.uniform((m - done) * self.n_factors)
            row = stream.uniform(self.n_factors)
            done = m + 1
            want = q_product_n(row, self.q_cascade)
            got = values[m] if m < values.size else math.nan
            if want.region is Region.CUTOFF_ZERO:
                ok = got == 0.0
            elif want.region is Region.DIVERGENT:
                ok = math.isinf(got)
            else:
                ok = math.isclose(got, want.value, rel_tol=1e-9)
            if not ok:
                problems.append(f"cascade member {m}: {got} vs fold {want}")
                break

        with open(op.ctx["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        pos = values[np.isfinite(values) & (values > 0)]
        w = np.median(q_log(pos, self.q_cascade)) - q_log(pos, self.q_cascade)
        w = w[w > 0]
        k = min(1000, w.size // 10)
        tail = summary.get("hill_tail_index")
        if k < 10:
            if tail is not None:
                problems.append("Hill estimate reported without enough tail")
        elif tail is None or tail["k"] != k or not math.isclose(
                tail["estimate"], hill(w, k), rel_tol=1e-9) or not math.isclose(
                tail["levy_alpha"], 1.0 / (self.q_cascade - 1.0)):
            problems.append(f"Hill estimate {tail} vs {hill(w, k)} at k={k}")
        return problems


class EvalPoints:
    """One pass over a fixed mix of `eval` calls: pdf, cdf and quantile
    grids at q = 0.8 and q = 1.25, moments 1-8 at q = 0.8, and the
    characteristic function at q = 1.25."""

    name = "eval_points"
    sizes = {
        "full": {"grid": 2000, "charfn": 10},
        "tiny": {"grid": 50, "charfn": 2},
    }
    x_range = {0.8: (0.02, 6.0), 1.25: (0.02, 20.0)}
    orders = tuple(range(1, 9))

    def __init__(self, size):
        s = self.sizes[size]
        self.grid, self.n_charfn = s["grid"], s["charfn"]

    def prepare(self):
        self.moments = raw_moments(self.orders, 0.8, 0.0, 1.0)

    def make_op(self, seed, opdir):
        rng = np.random.Generator(np.random.PCG64(seed))
        commands, stdout, outputs, checks = [], [], [], []

        def add(fn, q, points):
            out = str(opdir / f"{fn}-{q}.tsv")
            grid = ",".join(repr(float(v)) for v in points)
            commands.append(["eval", "--function", fn, "--q", repr(q),
                             "--grid", grid, "--out", out])
            stdout.append(str(opdir / f"{fn}-{q}.stdout"))
            outputs.append(out)
            checks.append((fn, q, np.asarray(points, dtype=float), out))

        for q in (0.8, 1.25):
            lo, hi = self.x_range[q]
            add("pdf", q, _stratified(rng, lo, hi, self.grid))
            add("cdf", q, _stratified(rng, lo, hi, self.grid))
            add("quantile", q, _stratified(rng, 0.001, 0.999, self.grid))
        add("moment", 0.8, self.orders)
        add("charfn", 1.25, _stratified(rng, 0.1, 5.0, self.n_charfn))
        items = 6 * self.grid + len(self.orders) + self.n_charfn
        return Op(commands, stdout, outputs, items, {"checks": checks})

    def check(self, op, tally):
        problems = []
        for fn, q, points, out in op.ctx["checks"]:
            with open(out, encoding="utf-8") as fh:
                lines = [ln.rstrip("\n") for ln in fh]
            flagged = [ln for ln in lines if ln.startswith("# point")]
            rows = [ln.split("\t") for ln in lines if not ln.startswith("#")]
            if flagged or len(rows) != points.size:
                problems.append(f"{fn} q={q}: {len(rows)} rows, flagged {flagged[:3]}")
                continue
            vals = np.array([[float(t) for t in r[1:]] for r in rows])
            if fn == "pdf":
                ok = np.allclose(vals[:, 0], pdf(points, q, 0.0, 1.0), rtol=1e-7, atol=1e-12)
            elif fn == "cdf":
                ok = np.allclose(vals[:, 0], cdf(points, q, 0.0, 1.0), rtol=0, atol=1e-9)
            elif fn == "quantile":
                ok = np.allclose(cdf(vals[:, 0], q, 0.0, 1.0), points, rtol=0, atol=1e-8)
            elif fn == "moment":
                ok = np.allclose(vals[:, 0], self.moments, rtol=1e-8, atol=0)
            else:
                ok = bool(np.isfinite(vals).all() and (np.hypot(vals[:, 0], vals[:, 1]) <= 1 + 1e-9).all())
            if not ok:
                problems.append(f"{fn} q={q} disagrees with its oracle")
        return problems


class CliMix:
    """One op runs the fit, sample-and-cascade and eval parts in turn, each
    on its own seeded inputs and with its own checks."""

    name = "cli_mix"
    item = "fit points x models + values written + grid points"
    # single-threaded ops: one client per CPU, at most two, so a run
    # samples the speed of more than one CPU of the host
    clients = 2

    def __init__(self, size):
        self.parts = [FitRank(size), SampleCascade(size), EvalPoints(size)]

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def make_op(self, seed, opdir):
        ops = []
        for part in self.parts:
            (opdir / part.name).mkdir()
            ops.append(part.make_op(seed, opdir / part.name))
        return Op([c for o in ops for c in o.commands], [f for o in ops for f in o.stdout],
                  [f for o in ops for f in o.outputs], sum(o.items for o in ops),
                  {"parts": ops})

    def check(self, op, tally):
        return [f"{part.name}: {msg}" for part, sub in zip(self.parts, op.ctx["parts"])
                for msg in part.check(sub, tally)]


WORKLOADS = {w.name: w for w in (KsTable, CliMix)}
