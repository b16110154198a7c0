"""monvar benchmark: seeded, oracle-checked workloads with an optional traced run.

    python3 bench/run.py --workload deduce --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: deduce, models, lattices (in-process, one query at a time) and cli
(one ``monvar`` child process at a time).  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a run whose monvar calls go through boundary
spans (see spans.py).  Every answer is checked by an independent oracle after
the timed phase.  A result file with the machine details is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

WORKLOADS = ("deduce", "models", "lattices", "cli")
MIN_OPS = 40            # the tail percentile needs 10 samples beyond it
OP_DEADLINE_S = 30.0    # per in-process operation; far above any measured one
CHILD_DEADLINE_S = 60.0  # per CLI invocation
SETUP_PROBES = 11
COLD_START_PROBES = 11
VERIFY_PROBES = 5
REF_ITERATIONS = 60_000  # one reference sample; the best of three is kept
REF_NOMINAL_S = 0.006    # the reference speed end-to-end times are reported at
CLI_CATEGORIES = ("check", "derive", "monoid-build", "monoid-satisfies", "monoid-info",
                  "lattice", "preceq")
# Known pathologies, each run in its own child with a deadline far below its
# current run time and a memory cap, so it is recorded instead of hanging.
GUARDED = (
    ("derive_T", ["derive", "x", "y", "--system", "T"], 2.0),
    ("check_Q", ["check", "Q", "xyx=yxy"], 3.0),
    ("comm_a6", ["monoid", "build", "bench/golden/pres/comm_a6_4gen.txt"], 4.0),
)
GUARDED_MEMORY = 2 << 30


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def monvar_cmd(*args):
    return [sys.executable, "-m", "monvar.cli", *args]


# ---------------------------------------------------------------------------
# statistics


def latency_summary(latencies):
    """Median and the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(n - 11, 0)
    return {"p50_ms": statistics.median(xs) * 1e3, "tail_ms": xs[idx] * 1e3,
            "tail_pct": round(100.0 * (idx + 1) / n, 1), "samples": n,
            "beyond_tail": n - idx - 1}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speed:
    """Machine speed, sampled between timed stretches.

    The host's speed drifts by tens of percent over minutes, and a fresh
    process, a search and a numpy kernel all slow down together.  A fixed
    pure-Python loop is timed before and after every timed stretch (a round,
    a probe); the stretch's times are scaled by REF_NOMINAL_S over the mean of
    the two samples, so end-to-end times read as at one reference speed.
    The unscaled values go to the result file."""

    def __init__(self):
        self.last = self.sample()
        self.samples = [self.last]
        self.wall = 0.0  # timed wall at the reference speed

    @staticmethod
    def sample():
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            x = 0
            for i in range(REF_ITERATIONS):
                x += i * i % 7
            best = min(best, time.perf_counter() - t)
        return best

    def factor(self):
        """Scale for the stretch since the previous call (or since creation)."""
        before, self.last = self.last, self.sample()
        self.samples.append(self.last)
        return REF_NOMINAL_S / ((before + self.last) / 2)

    def scale(self, records, wall):
        """Add a timed stretch: its wall and, appended to each record, its
        latency at the reference speed."""
        f = self.factor()
        self.wall += wall * f
        for r in records:
            r.append(r[2] * f)


# ---------------------------------------------------------------------------
# in-process workloads


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline("deadline exceeded")


def resolved(workload):
    import workloads

    ctx = workloads.Context()
    workloads.RESOLVE[workload](ctx)
    return ctx


def run_inprocess(workload, seed, seconds, ctx, speed, tracer=None, rounds=None,
                  between=None):
    """Closed loop, one client: whole rounds until `seconds` of timed wall
    (or exactly `rounds` rounds).  Input generation happens between rounds,
    off the clock; so does `between` (a probe).  Every round's times are also
    scaled to the reference speed (see Speed)."""
    import gen
    import workloads

    stream = gen.rounds(workload, seed)
    records = []
    wall = 0.0
    done = 0
    signal.signal(signal.SIGALRM, _alarm)
    while (done < rounds) if rounds is not None else (wall < seconds or len(records) < MIN_OPS):
        batch = next(stream)
        speed.factor()  # the stretch since the last sample was not timed
        first = len(records)
        t_round = time.perf_counter()
        for q in batch:
            for label, fn in workloads.operations(ctx, q):
                t = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
                try:
                    out = tracer.span("bench.query", fn) if tracer else fn()
                    err = None
                except Exception as exc:  # counted as a failed operation
                    out, err = None, f"{type(exc).__name__}: {exc}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                records.append([q, label, time.perf_counter() - t, out, err])
        round_wall = time.perf_counter() - t_round
        wall += round_wall
        done += 1
        speed.scale(records[first:], round_wall)
        if between:
            between()
    return records, wall, done


def judge(ctx, records):
    """Oracle pass after the timed phase: (decided count, failures)."""
    import workloads

    failures = []
    decided = 0
    states = {}
    for q, label, _, out, err, *_ in records:
        if err is None:
            err = workloads.check(ctx, q, label, out, states.setdefault(id(q), {}))
        if err is not None:
            failures.append(f"{q['cls']} {label}: {err}")
        elif workloads.decided(q, label, out):
            decided += 1
    return decided, failures


def class_table(records):
    by = {}
    for q, label, dt, *_ in records:
        by.setdefault(f"{q['cls']}/{label}", []).append(dt)
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3,
                "total_s": sum(v)} for k, v in sorted(by.items())}


# ---------------------------------------------------------------------------
# children: set-up, cold start, verify-paper, the CLI pool


def timed_child(args, golden, timeout=CHILD_DEADLINE_S):
    """(wall seconds, error or None, peak RSS in MB) for one child process whose
    exit code and stdout must match `golden`."""
    t = time.perf_counter()
    p = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    except Deadline:
        p.kill()
        p.wait()
        return time.perf_counter() - t, f"deadline of {timeout} s", 0.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        p.stdout.close()
    dt = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss / 1024.0
    if p.returncode != golden["rc"]:
        return dt, f"exit {p.returncode}, golden {golden['rc']}", rss
    if out.decode("utf-8") != golden["stdout"]:
        return dt, "stdout differs from golden", rss
    return dt, None, rss


def setup_probe(workload):
    """Fresh process to ready: import monvar and resolve what the workload uses."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.RESOLVE[%r](workloads.Context()); print('ready', flush=True)"
            % (str(SRC), str(HERE), workload))
    t = time.perf_counter()
    p = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = p.stdout.readline()
    dt = time.perf_counter() - t
    p.communicate(timeout=CHILD_DEADLINE_S)
    if line.strip() != b"ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {p.returncode})")
    return dt


def load_pool():
    with open(GOLDEN / "cli_pool.json", encoding="utf-8") as fh:
        return json.load(fh)


class EndToEnd:
    """What an untraced run measures besides the loop's own latencies.

    Probes: set-up, cold start and verify-paper, each in fresh processes.
    One probe runs after each round of the timed phase (off its clock) and
    the rest after it, so the samples spread over the whole run.  Every
    timed stretch (a round, a probe) is scaled to the reference speed."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.golden = pool["probes"]
        plan = [(i / n, kind) for kind, n in (("setup_s", SETUP_PROBES),
                                              ("cold_start_s", COLD_START_PROBES),
                                              ("verify_paper_s", VERIFY_PROBES))
                for i in range(n)]
        self.todo = [kind for _, kind in sorted(plan)]
        self.samples = {k: [] for k in ("setup_s", "cold_start_s", "verify_paper_s")}
        self.raw = {k: [] for k in self.samples}
        self.errors = []
        self.speed = Speed()

    def step(self):
        if not self.todo:
            return
        kind = self.todo.pop(0)
        if kind == "setup_s":
            dt = setup_probe(self.workload)
        else:
            args, golden = ((("preceq", "xy", "yx"), self.golden["cold_start"])
                            if kind == "cold_start_s" else
                            (("verify-paper",), self.golden["verify_paper"]))
            dt, err, _ = timed_child(monvar_cmd(*args), golden)
            if err:
                self.errors.append(f"{args[0]}: {err}")
        self.raw[kind].append(dt)
        self.samples[kind].append(dt * self.speed.factor())

    def finish(self):
        while self.todo:
            self.speed.factor()
            self.step()
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        return {"setup_s": med["setup_s"], "cold_start_ms": med["cold_start_s"] * 1e3,
                "verify_paper_s": med["verify_paper_s"], "samples": self.samples,
                "raw": self.raw, "speed_samples": self.speed.samples, "errors": self.errors}


def run_cli(seed, seconds, pool, speed, between=None):
    """One child at a time, whole rounds of one invocation per category."""
    import gen

    by_cat = {}
    for entry in pool["entries"]:
        by_cat.setdefault(entry["cat"], []).append(entry)
    order = gen.cli_order({c: len(v) for c, v in by_cat.items()}, seed)
    records = []
    wall = 0.0
    i = 0
    while (wall < seconds or len(records) < MIN_OPS) and i < min(map(len, order.values())):
        speed.factor()
        first = len(records)
        t_round = time.perf_counter()
        for cat in CLI_CATEGORIES:
            entry = by_cat[cat][order[cat][i]]
            dt, err, rss = timed_child(monvar_cmd(*entry["args"]), entry)
            records.append([entry, cat, dt, rss, err])
        round_wall = time.perf_counter() - t_round
        wall += round_wall
        i += 1
        speed.scale(records[first:], round_wall)
        if between:
            between()
    return records, wall, i


def import_times():
    """cumulative import time of monvar and numpy, from python -X importtime."""
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import monvar"],
                       cwd=ROOT, env=child_env(), capture_output=True, text=True,
                       timeout=CHILD_DEADLINE_S)
    out = {}
    for line in p.stderr.splitlines():
        parts = [s.strip() for s in line.split("|")]
        if len(parts) == 3 and parts[2] in ("monvar", "numpy"):
            out[parts[2]] = int(parts[1]) / 1e3
    return out.get("monvar", 0.0), out.get("numpy", 0.0)


def run_guarded():
    """Each pathology in a child with its deadline and an address-space cap."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (GUARDED_MEMORY, GUARDED_MEMORY))

    results = {}
    for name, args, deadline in GUARDED:
        t = time.perf_counter()
        p = subprocess.Popen(monvar_cmd(*args), cwd=ROOT, env=child_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             preexec_fn=cap)
        try:
            rc = p.wait(timeout=deadline)
            hit = False
        except subprocess.TimeoutExpired:
            p.kill()
            rc = p.wait()
            hit = True
        results[name] = {"s": time.perf_counter() - t, "exit": rc, "deadline_hit": hit}
    return results


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(m, wall, overhead, catalog_s, imports, cli_ms, verify_layers, guarded):
    g = m.get
    calls = g("words.match.calls", 0)
    fails = g("varieties.fails", 0)
    fc_s = g("monoids.find_counterexample.s", 0)
    layer_self = sum(g(f"self_s.{k}", 0) for k in
                     ("words", "deduction", "varieties", "monoids", "lattices", "verify"))
    out = {
        "words.match.calls": (calls, "count"),
        "words.match.self_s": (g("words.match.self_s", 0), "s"),
        "words.match.hit_ratio": (g("words.match.hits", 0) / calls if calls else 0, "ratio"),
        "words.embeds.calls": (g("words.embeds.calls", 0), "count"),
        "words.embeds.s": (g("words.embeds.s", 0), "s"),
        "deduction.derivable.calls": (g("deduction.derivable.calls", 0), "count"),
        "deduction.derivable.s": (g("deduction.derivable.s", 0), "s"),
        "deduction.expand.calls": (g("deduction.expand.calls", 0), "count"),
        "deduction.expand.self_s": (g("deduction.expand.self_s", 0), "s"),
        "deduction.expand.successors": (g("deduction.expand.successors", 0), "count"),
        "deduction.useful_ratio": (g("deduction.first_seen", 0) / g("deduction.expand.successors")
                                   if g("deduction.expand.successors") else 0, "ratio"),
    }
    for kind in ("rule", "model", "deduction"):
        out[f"varieties.decide.calls.{kind}"] = (g(f"varieties.decide.calls.{kind}", 0), "count")
        out[f"varieties.decide.s.{kind}"] = (g(f"varieties.decide.s.{kind}", 0), "s")
    out.update({
        "varieties.refute.calls": (g("varieties.refute.calls", 0), "count"),
        "varieties.refute.s": (g("varieties.refute.s", 0), "s"),
        "varieties.fails_after_search_frac": (g("varieties.fails_after_search", 0) / fails
                                              if fails else 0, "ratio"),
        "varieties.catalog_s": (catalog_s, "s"),
        "monoids.from_presentation.calls": (g("monoids.from_presentation.calls", 0), "count"),
        "monoids.from_presentation.s": (g("monoids.from_presentation.s", 0), "s"),
        "monoids.elements_built": (g("monoids.elements_built", 0), "count"),
        "monoids.validate.calls": (g("monoids.validate.calls", 0), "count"),
        "monoids.validate.s": (g("monoids.validate.s", 0), "s"),
        "monoids.find_counterexample.calls": (g("monoids.find_counterexample.calls", 0), "count"),
        "monoids.find_counterexample.s": (fc_s, "s"),
        "monoids.cells": (g("monoids.cells", 0), "count"),
        "monoids.cells_per_s": (g("monoids.cells", 0) / fc_s if fc_s else 0, "cells/s"),
        "lattices.build.calls": (g("lattices.build.calls", 0), "count"),
        "lattices.build.s": (g("lattices.build.s", 0), "s"),
        "lattices.elements_built": (g("lattices.elements_built", 0), "count"),
        "lattices.element_check.calls": (g("lattices.element_check.calls", 0), "count"),
        "lattices.element_check.s": (g("lattices.element_check.s", 0), "s"),
        "lattices.global_check.s": (g("lattices.global_check.s", 0), "s"),
        "cli.import_monvar_ms": (imports[0], "ms"),
        "cli.import_numpy_ms": (imports[1], "ms"),
    })
    for cat in ("check", "derive", "monoid", "lattice", "preceq"):
        out[f"cli.invocation_ms.{cat}"] = (cli_ms.get(cat, 0), "ms")
    for layer in ("words", "deduction", "varieties", "monoids", "lattices"):
        out[f"verify.layer_s.{layer}"] = (verify_layers.get(layer, 0), "s")
        out[f"self_s.{layer}"] = (g(f"self_s.{layer}", 0), "s")
    out["self_s.verify"] = (g("self_s.verify", 0), "s")
    out["self_s.bench"] = (g("self_s.bench", 0), "s")
    out["trace.timed_wall_s"] = (wall, "s")
    out["trace.unattributed_s"] = (wall - layer_self, "s")
    out["tracing.overhead_frac"] = (overhead, "ratio")
    out["guarded.deadline_hits"] = (sum(r["deadline_hit"] for r in guarded.values()), "count")
    for name, _, _ in GUARDED:
        out[f"guarded.{name}_s"] = (guarded.get(name, {}).get("s", 0), "s")
    return out


# ---------------------------------------------------------------------------
# modes


def untraced_wall(workload, seed, rounds):
    """Timed wall of the same rounds, untraced, in a fresh process, at the
    reference speed."""
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "0", "--trace", "0",
                        "--rounds", str(rounds)],
                       cwd=ROOT, env=child_env(), capture_output=True, text=True,
                       timeout=180)
    if p.returncode != 0:
        raise RuntimeError(f"untraced replay failed: {p.stderr[-500:]}")
    return json.loads(p.stdout.splitlines()[-1])["wall"]


def verify_untraced_wall():
    """In-process verify-paper, untraced, in a fresh process, at the reference
    speed: (seconds, whether every check passed)."""
    code = ("import sys, time; sys.path[:0] = [%r, %r]; import monvar, run, workloads; "
            "workloads.resolve_cli(workloads.Context()); speed = run.Speed(); "
            "t = time.perf_counter(); ok = monvar.run_verification().ok; "
            "print((time.perf_counter() - t) * speed.factor(), ok)" % (str(SRC), str(HERE)))
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                       capture_output=True, text=True, timeout=CHILD_DEADLINE_S)
    wall, ok = p.stdout.split()
    return float(wall), ok == "True"


def timed_first_lookup():
    """varieties.catalog_s: the first lookup in a fresh process builds the catalog."""
    import monvar

    t = time.perf_counter()
    monvar.lookup("T")
    return time.perf_counter() - t


def run_cli_workload(seed, seconds, trace, details):
    """Returns (attempted, failures, metrics)."""
    import monvar
    import spans

    catalog_s = timed_first_lookup()
    pool = load_pool()
    e2e = None if trace else EndToEnd("cli", pool)
    recs, wall, details["rounds"] = run_cli(seed, seconds, pool, e2e.speed if e2e else Speed(),
                                            e2e and e2e.step)
    failures = [f"{e['cat']} {' '.join(e['args'])}: {err}" for e, _, _, _, err, *_ in recs
                if err]
    by_cat = {}
    for e, cat, dt, *_ in recs:
        by_cat.setdefault(cat.split("-")[0], []).append(dt)
    details["cli_median_ms"] = {k: statistics.median(v) * 1e3 for k, v in by_cat.items()}
    if not trace:
        decided = sum(1 for e, _, _, _, err, _ in recs if not err and e["rc"] in (0, 1))
        rss = max(r[3] for r in recs)  # the largest child
        return len(recs), failures, end_to_end(e2e, recs, wall, decided, rss, details,
                                               failures)

    # verify-paper in-process under the wrappers, against an untraced child
    resolved("cli")
    tracer = spans.Tracer()
    speed = Speed()
    tracer.install()
    try:
        t = time.perf_counter()
        report = monvar.run_verification()
        traced = time.perf_counter() - t
    finally:
        tracer.uninstall()
    traced_scaled = traced * speed.factor()
    base, ok = verify_untraced_wall()
    if not (report.ok and ok):
        failures.append("verify-paper reported a failing check")
    m = spans.summarise(tracer.spans)
    verify_layers = {k: m.get(f"self_s.{k}", 0) for k in
                     ("words", "deduction", "varieties", "monoids", "lattices")}
    guarded = run_guarded()
    details.update(guarded=guarded, verify_traced_scaled_s=traced_scaled,
                   verify_untraced_scaled_s=base)
    _write_spans(tracer.spans, "cli", seed)
    return len(recs), failures, layer_metrics(
        m, traced, traced_scaled / base - 1, catalog_s, import_times(),
        details["cli_median_ms"], verify_layers, guarded)


def run_inprocess_workload(workload, seed, seconds, trace, details):
    """Returns (attempted, failures, metrics)."""
    import spans

    if trace:
        catalog_s = timed_first_lookup()
        ctx = resolved(workload)
        tracer = spans.Tracer()
        tracer.install()
        try:
            speed = Speed()
            records, wall, rounds = run_inprocess(workload, seed, seconds, ctx, speed, tracer)
        finally:
            tracer.uninstall()
    else:
        ctx = resolved(workload)
        e2e = EndToEnd(workload, load_pool())
        records, wall, rounds = run_inprocess(workload, seed, seconds, ctx, e2e.speed,
                                              between=e2e.step)
    rss = peak_rss_mb()
    decided, failures = judge(ctx, records)
    details.update(rounds=rounds, classes=class_table(records))
    if not trace:
        return len(records), failures, end_to_end(e2e, records, wall, decided, rss,
                                                  details, failures)
    base = untraced_wall(workload, seed, rounds)
    details.update(untraced_scaled_wall_s=base, traced_scaled_wall_s=speed.wall)
    _write_spans(tracer.spans, workload, seed)
    return len(records), failures, layer_metrics(
        spans.summarise(tracer.spans), wall, speed.wall / base - 1, catalog_s, import_times(),
        {}, {}, {})


def end_to_end(e2e, records, wall, decided, rss, details, failures):
    """End-to-end metrics at the reference speed; raw values go to details and
    a probe whose output differs from the golden one to failures."""
    pr = e2e.finish()
    failures += pr["errors"]
    summary = latency_summary([r[5] for r in records])
    details.update(latency=summary, raw_latency=latency_summary([r[2] for r in records]),
                   raw_wall_s=wall, scaled_wall_s=e2e.speed.wall,
                   probes={"scaled": pr["samples"], "raw": pr["raw"]},
                   speed_samples=pr["speed_samples"])
    attempted = len(records)
    return {
        "setup_s": (pr["setup_s"], "s"),
        "ops_per_s": (attempted / e2e.speed.wall, "ops/s"),
        "op_p50_ms": (summary["p50_ms"], "ms"),
        "op_tail_ms": (summary["tail_ms"], "ms"),
        "decided_frac": (decided / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "cold_start_ms": (pr["cold_start_ms"], "ms"),
        "verify_paper_s": (pr["verify_paper_s"], "s"),
    }


def _write_spans(spans, workload, seed):
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans_{workload}_s{seed}.jsonl.gz", "wt", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4]]) + "\n")


def environment(loadavg):
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_start": loadavg,
            "machine": platform.machine(), "started": time.strftime("%Y-%m-%dT%H:%M:%S")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="replay exactly this many rounds untraced and print the timed"
                         " wall (used by the traced run to measure its own overhead)")
    args = ap.parse_args(argv)

    if not (SRC / "monvar" / "__init__.py").is_file():
        print(f"error: no monvar package under {SRC}; run from a checkout of the"
              " repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    load = os.getloadavg()

    if args.rounds is not None:
        speed = Speed()
        run_inprocess(args.workload, args.seed, 0, resolved(args.workload), speed,
                      rounds=args.rounds)
        print(json.dumps({"wall": speed.wall}))
        return 0

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    runner = run_cli_workload if args.workload == "cli" else \
        partial(run_inprocess_workload, args.workload)
    attempted, failures, metrics = runner(args.seed, args.seconds, args.trace, details)
    failed = len(failures)
    env = environment(load)
    OUT.mkdir(exist_ok=True)
    result = {"environment": env, "details": details, "failures": failures[:50],
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path = OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if args.trace:
        wall = metrics["trace.timed_wall_s"][0]
        print(f"layer self times cover {wall - metrics['trace.unattributed_s'][0]:.4g} s of"
              f" {wall:.4g} s traced wall; the rest is the benchmark's own overhead")
    if "latency" in details:
        lat = details["latency"]
        print(f"op_tail_ms is p{lat['tail_pct']} of {lat['samples']} operations"
              f" ({lat['beyond_tail']} beyond it)")
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted}); result in"
          f" {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
