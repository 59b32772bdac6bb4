#!/usr/bin/env python3
"""qlognorm benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ks_table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program under test is the
checkout's src/qlognorm.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STARTED = time.monotonic()
DEADLINE_S = 140.0        # stop starting ops after this
HARD_LIMIT_S = 170.0      # give up on the worker after this; runs must end by 180 s
SETUP_REPEATS = 5
# End-to-end times are reported at the host speed at which reference.kernel
# takes this long: a run's times are scaled by REF_NOMINAL_S over the
# kernel's mean time in that run.  On the 2-vCPU host this was tuned on the
# kernel took 0.43-0.81 s.
REF_NOMINAL_S = 0.5

SETUP_CODE = (
    "import time; t = time.perf_counter(); import qlognorm.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QLOGNORM_THREADS", None)  # --workers must reach the pool as given
    return env


def measure_setup(env, repeats: int) -> list[float]:
    """Fresh-interpreter import of qlognorm plus the CLI parser.  The run
    process has imported qlognorm already, so the byte-code cache is warm."""
    times = []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            fail(f"importing qlognorm failed:\n{res.stderr}")
        times.append(float(res.stdout.strip()))
    return times


class Proc:
    """A helper process that answers each JSON request line with one JSON
    line.  With `cpu` given it is pinned to that CPU before it imports
    anything, so its threads stay there too."""

    def __init__(self, argv, env, cpu: int | None = None):
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.last = None      # the answer to quit
        self.closed = False

    def reply(self):
        """The next line, or None (and the process killed) if it died or
        would not answer before the hard limit."""
        left = HARD_LIMIT_S - (time.monotonic() - STARTED)
        line = self.proc.stdout.readline() if self.sel.select(max(left, 0.0)) else ""
        if not line:
            self.proc.kill()
            return None
        return json.loads(line)

    def send(self, msg) -> bool:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.proc.kill()
            return False
        return True

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.proc.poll() is None and self.send({"quit": True}):
            self.last = self.reply()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.sel.close()
        for fh in (self.proc.stdin, self.proc.stdout):
            try:
                fh.close()
            except BrokenPipeError:
                pass


def time_reference(refs) -> list[float]:
    """reference.kernel's time on each reference process's CPU, all at once."""
    if not all(r.send({"ref": True}) for r in refs):
        fail("a reference process died")
    times = [r.reply() for r in refs]
    if None in times:
        fail("a reference process died")
    return [t["ref"] for t in times]


def identity(args, wl, clients) -> dict:
    import scipy
    from workloads import nproc

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "clients": clients, "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
    }


def warm_up(wl, work: Path, workers, meanwhile) -> None:
    """One small untimed op per client before the timed rounds, so that
    first-call costs (lazy imports, caches) stay out of them.  The client
    runs `meanwhile` while the clients warm up."""
    for k, worker in enumerate(workers):
        opdir = work / f"op{k}"
        opdir.mkdir(parents=True)
        op = wl.make_op(k, opdir)
        if not worker.send({"op": -1, "commands": op.commands, "stdout": op.stdout,
                            "trace": False}):
            fail("a worker died before the warm-up")
    meanwhile()
    if any(w.reply() is None for w in workers):
        fail("a worker died during the warm-up")


def run_ops(wl, args, work: Path, workers, refs, min_each: int, setup: list,
            setup_repeats: int, ref_times: list, env):
    """Closed loop in rounds: each client runs one op per round, all
    clients at once, and round r+1 starts after every op of round r has
    been checked.  Right after a round's ops the reference kernel is timed
    on each CPU in `refs`, all at once, into `ref_times`.  Between rounds,
    while no op runs, the client times one fresh-interpreter set-up until
    it has `setup_repeats` of them spread evenly over the run."""
    from workloads import op_seed

    ops = []
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        batch = []
        for k, worker in enumerate(workers):
            i = r * len(workers) + k
            opdir = work / f"op{k}"
            shutil.rmtree(opdir, ignore_errors=True)
            opdir.mkdir(parents=True)
            seed = op_seed(args.seed, i)
            batch.append((i, seed, wl.make_op(seed, opdir)))
        sent = [w.send({"op": i, "commands": op.commands, "stdout": op.stdout,
                        "trace": traced})
                for w, (i, _, op) in zip(workers, batch)]
        replies = [w.reply() if ok else None for w, ok in zip(workers, sent)]
        if refs:
            ref_times += time_reference(refs)
        for (i, seed, op), reply in zip(batch, replies):
            tally = {}
            if reply is None:
                problems = ["the worker died or stopped answering"]
            elif reply["error"] or any(rc != 0 for rc in reply["rc"]):
                problems = [f"exit codes {reply['rc']}: {reply['error']}"]
            else:
                try:
                    problems = wl.check(op, tally)
                except Exception as exc:  # a malformed output fails the op
                    problems = [f"check raised {exc!r}"]
            ops.append({
                "op": i, "seed": seed, "traced": traced,
                "wall": reply["wall"] if reply else math.nan,
                "cpu": reply["cpu"] if reply else math.nan,
                "items": op.items, "problems": problems, "tally": tally,
                "out_bytes": sum(os.path.getsize(p) for p in op.outputs
                                 if os.path.exists(p)),
            })
        if None in replies:
            break
        r += 1
        # op time per client
        op_time = sum(o["wall"] for o in ops) / len(workers)
        if not args.trace and len(setup) < setup_repeats \
                and op_time >= len(setup) * args.seconds / setup_repeats:
            setup += measure_setup(env, 1)
        rounds = [sum(1 for o in ops if o["traced"] == t) // len(workers)
                  for t in ((False, True) if args.trace else (False,))]
        if (op_time >= args.seconds and min(rounds) >= min_each) \
                or time.monotonic() - STARTED > DEADLINE_S:
            break
    return ops


def end_to_end(ops, setup, ref_times, peak_kb, failed, attempted) -> tuple[dict, dict]:
    """The declared metrics, with every time scaled to the nominal host
    speed, and the same metrics unscaled.  Means, not medians, of the op
    times: the host's slow and fast stretches make per-op times bimodal,
    and a median jumps between the modes where a mean averages them."""
    def metrics(f):
        walls = [o["wall"] * f for o in ops]
        return {
            "setup_s": statistics.median(setup) * f,
            "wall_s": statistics.mean(walls),
            "wall_p90_s": float(np.percentile(walls, 90)),
            "items_per_s": sum(o["items"] for o in ops) / sum(walls),
            "cpu_s": statistics.mean(o["cpu"] * f for o in ops),
            "peak_rss_mb": peak_kb / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }

    return metrics(REF_NOMINAL_S / statistics.mean(ref_times)), metrics(1.0)


LAYERS = ("cli", "qalgebra", "dist", "specfun", "sample", "infer")


def op_layer_metrics(a, op) -> dict:
    """Per-layer metrics of one traced op from its span analysis."""
    from tracing import TABLE_BLOCK
    from workloads import MODELS

    names = a["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    m = {
        "cli.self_s": get("cli.main", "self_s"),
        "cli.ingest_s": get("cli.ingest", "incl_s"),
        "cli.out_bytes": op["out_bytes"],
        "qalgebra.q_exp_s": get("qalgebra.q_exp", "incl_s"),
        "qalgebra.q_exp_elems": get("qalgebra.q_exp", "elems"),
        "qalgebra.q_log_s": get("qalgebra.q_log", "incl_s"),
        "qalgebra.cutoff_count": op["tally"].get("cutoff_count", 0),
        "qalgebra.divergent_count": op["tally"].get("divergent_count", 0),
        "dist.cdf_elems": get("dist.cdf", "elems"),
        "specfun.log_pcf_D_neg_s": get("specfun.log_pcf_D_neg", "incl_s"),
        "specfun.log_pcf_D_neg_calls": get("specfun.log_pcf_D_neg", "calls"),
        "specfun.quad_s": get("specfun.quad", "incl_s"),
        "specfun.quad_calls": get("specfun.quad", "calls"),
        "sample.uniform_s": get("sample.uniform", "incl_s"),
        "sample.uniform_calls": get("sample.uniform", "calls"),
        "sample.uniform_draws": get("sample.uniform", "elems"),
        "sample.sample_qlognormal_s": get("sample.sample_qlognormal", "incl_s"),
        "sample.sample_qlognormal_self_s": get("sample.sample_qlognormal", "self_s"),
        "sample.cascade_run_s": get("sample.cascade_run", "incl_s"),
        "sample.cascade_run_self_s": get("sample.cascade_run", "self_s"),
        "infer.ks_table_generate_s": get("infer.ks_table_generate", "incl_s"),
        "infer.ks_table_generate_self_s": get("infer.ks_table_generate", "self_s")
        + get(TABLE_BLOCK, "self_s"),
        "infer.table_blocks": get(TABLE_BLOCK, "calls"),
        "infer.table_threads": a["threads"].get(TABLE_BLOCK, 0),
        "infer.solver_calls": get("infer.solver", "calls"),
        "infer.solver_s": get("infer.solver", "incl_s"),
    }
    for f in ("pdf", "cdf", "quantile", "raw_moment", "char_fn"):
        m[f"dist.{f}_s"] = get(f"dist.{f}", "incl_s")
        m[f"dist.{f}_calls"] = get(f"dist.{f}", "calls")
    dist_names = [n for n in names if n.startswith("dist.")]
    calls = sum(names[n]["calls"] for n in dist_names)
    m["dist.elems_per_call"] = (
        sum(names[n]["elems"] for n in dist_names) / calls if calls else 0.0
    )
    threads = m["infer.table_threads"]
    m["infer.table_parallel_eff"] = op["cpu"] / (op["wall"] * threads) if threads else 0.0
    for model in MODELS:
        m[f"infer.fit_mle_s.{model}"] = get(f"infer.fit_mle.{model}", "incl_s")
    # the multi-start's useful work: the best start of each fit, by its
    # final objective, against every start's evaluations
    by_fit = defaultdict(list)
    for fit, nfev, fun in a["solver"]:
        by_fit[fit].append((fun, nfev))
    nfev = sum(n for starts in by_fit.values() for _, n in starts)
    m["infer.solver_nfev"] = nfev
    m["infer.solver_nfev_best_frac"] = (
        sum(min(starts)[1] for starts in by_fit.values()) / nfev if nfev else 0.0
    )
    m["trace.covered_frac"] = a["self_total"] / op["wall"]
    m["trace.uncovered_s"] = op["wall"] - a["self_total"]
    for layer in LAYERS:
        own = sum(v["self_s"] for n, v in names.items() if n.startswith(layer + "."))
        m[f"trace.self_frac.{layer}"] = own / op["wall"]
    m["trace.spans"] = sum(v["calls"] for v in names.values())
    return m


def per_layer(ops, spans_paths) -> dict:
    from tracing import analyse_op

    by_op = defaultdict(list)
    for path in spans_paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                s = json.loads(line)
                by_op[s[6]].append(tuple(s))
    traced = [o for o in ops if o["traced"]]
    rows = [op_layer_metrics(analyse_op(by_op.get(o["op"], [])), o) for o in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    t_wall = statistics.median(o["wall"] for o in traced)
    out["trace.wall_s"] = t_wall
    out["trace.overhead_s"] = t_wall - statistics.median(
        o["wall"] for o in ops if not o["traced"])
    return out


def run(args, min_each=2, setup_repeats=SETUP_REPEATS) -> dict:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](args.size)
    work = ROOT / ".perfbench" / "work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    cpus = sorted(os.sched_getaffinity(0))
    n_clients = min(wl.clients, len(cpus))
    pins = cpus[:n_clients] if n_clients > 1 else [None]
    spans = [work / f"spans{k}.jsonl" for k in range(n_clients)]
    # the traced run reports unscaled per-layer times and needs no reference
    ref_cpus = [] if args.trace else [c for c in pins if c is not None] or cpus[:2]
    setup, ref_times, raw = [], [], {}
    try:
        workers, refs = [], []
        try:
            workers = [Proc([sys.executable, str(HERE / "worker.py"), str(path), str(SRC)],
                            env, cpu) for path, cpu in zip(spans, pins)]
            refs = [Proc([sys.executable, str(HERE / "reference.py")], env, cpu)
                    for cpu in ref_cpus]
            if any(w.reply() is None for w in workers):
                fail("the worker could not import qlognorm from the checkout")
            if any(r.reply() is None for r in refs):
                fail("a reference process did not start")
            warm_up(type(wl)("tiny"), work, workers, meanwhile=wl.prepare)
            ops = run_ops(wl, args, work, workers, refs, min_each, setup, setup_repeats,
                          ref_times, env)
        finally:
            for w in workers + refs:
                w.close()
        if not args.trace and len(setup) < setup_repeats:
            setup += measure_setup(env, setup_repeats - len(setup))
        peaks = [w.last["peak_rss_kb"] for w in workers if w.last]
        failed = sum(1 for o in ops if o["problems"])
        # an op the worker never answered has no timing; it still counts as failed
        timed = [o for o in ops if math.isfinite(o["wall"])]
        if not timed or (args.trace and not any(o["traced"] for o in timed)):
            fail("no op completed: " + "; ".join(ops[-1]["problems"]))
        if args.trace:
            values, declared = per_layer(timed, spans), spec["per_layer"]
        else:
            values, raw = end_to_end(timed, setup, ref_times, max(peaks, default=0),
                                     failed, len(ops))
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    walls = [o["wall"] for o in timed]
    notes = {
        "failed_frac": failed / len(ops),
        "ops": len(ops),
        "item": wl.item,
        "samples_above_p90": sum(1 for w in walls if w > np.percentile(walls, 90)),
        "unscaled": raw,
    }
    for d in declared:
        print(f"{wl.name:15s} {d['name']:36s} {values[d['name']]:>16.6g} {d['unit']}")
    for name in ("setup_s", "wall_s", "wall_p90_s", "items_per_s", "cpu_s"):
        if name in raw:
            print(f"{wl.name:15s} {name + ' unscaled':36s} {raw[name]:>16.6g}")
    print(f"{wl.name:15s} {'failed_frac':36s} {notes['failed_frac']:>16.6g} "
          f"({failed} of {len(ops)} ops)")
    if not args.trace:
        # not declared: a p90 wants ten ops above it, so 100 ops, and a run
        # holds 8 to 20
        print(f"{wl.name:15s} {'wall_p90_s (undeclared)':36s} "
              f"{values['wall_p90_s']:>16.6g} s "
              f"from {len(ops)} ops, {notes['samples_above_p90']} above it; "
              f"items are {wl.item}")
    for o in ops:
        for p in o["problems"][:3]:  # the full list is in the result record
            print(f"{wl.name:15s} op {o['op']} failed: {p}"[:500])
    record = {"identity": identity(args, wl, n_clients), "notes": notes,
              "ref_nominal_s": REF_NOMINAL_S, "ref_s": ref_times, "setup_s": setup,
              "ops": ops, **result}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def smoke() -> int:
    """Each workload at its tiny size, untraced and traced; checks that the
    result schema, metric names and units match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=0,
                                      trace=trace, size="tiny")
            res = run(args, min_each=1, setup_repeats=1)
            declared = spec["per_layer" if trace else "end_to_end"]
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: ops failed")
            want = {d["name"]: d["unit"] for d in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics {got} != {want}")
            bad = [k for k, v in res["metrics"].items()
                   if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"]))]
            if bad:
                problems.append(f"{w['name']} trace={trace}: non-finite {bad}")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main() -> int:
    if not (SRC / "qlognorm" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'qlognorm'} is missing")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing")
    sys.path.insert(1, str(SRC))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny size and validate the schema")
    args = p.parse_args()
    if args.smoke:
        return smoke()
    args.size = "full"
    from workloads import WORKLOADS

    if args.workload == "all":
        # each workload in a fresh process, as a single run would be
        rcs = [subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
               for name in WORKLOADS]
        return max(rcs)
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
