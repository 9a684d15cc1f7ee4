"""End-to-end and per-layer benchmark of the resmatch command line.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --workload all [--seconds S]   # every workload, one table
    python3 benchmarks/run.py --compare OLD NEW               # result files or directories
    python3 benchmarks/run.py --make-reference                # rewrite reference.json

Run it from the repository root.  One process and one thread call
`resmatch.cli.main` in a closed loop (one client): each operation is one
command line over files generated from the seed, timed from the call to its
return, and its output files are then checked against independent oracles
(`oracle.py`).  A wrong output, an unexpected exit code or an exception is a
failed operation.

Set-up (import of resmatch, input generation, writing the files and one
warm-up operation) runs three times; `setup_s` is the median.  The
measurement then makes round(seconds / PASS_S) whole passes over the input
set (at least one), which takes about `--seconds` at the seed commit; the
sample count is therefore the same on every commit.  Times are scaled by a
speed probe (see `SpeedProbe`).  `latency_p50_ms` is the median execution,
`latency_tail_ms` the highest percentile with at least ten executions
beyond it, and `ops_per_s` the number of executions over their summed time.

`--trace 1` makes two passes without tracing, then two passes with spans at
the module boundaries (see `tracer.py`).  Per-layer times are the mean of
the two traced passes, summed over one pass of the input set and scaled by
the probe's median over those passes; counts must agree exactly between the
two traced passes, or the run fails.  The overhead ratio is the traced time
of the operations over their untraced time.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A fuller record (environment, tail
percentile, failures, per-span summary) goes to `--out`, by default under
`.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
# Each workload's input set takes about this long per pass at the seed
# commit; a run makes round(seconds / PASS_S) passes, so every operation gets
# the same number of executions on every commit.
PASS_S = 4

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# ------------------------------------------------------------ environment


def src_facts() -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    loc = 0
    digest = []
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        loc += data.count(b"\n")
        digest.append(os.path.relpath(path, SRC) + ":" + oracle.sha256(data))
    return {"src_loc": loc, "src_sha256": oracle.sha256("\n".join(digest))}


def git_commit() -> str | None:
    """HEAD from .git without running git; None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    uname = os.uname()
    return {"machine": uname.machine, "system": f"{uname.sysname} {uname.release}",
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), **src_facts()}


# ------------------------------------------------------------ operations


class SpeedProbe:
    """A fixed pure-Python job (the benchmark's own enumeration of the maximum
    matchings of one small graph, about a millisecond) timed right before and
    right after each timed region.

    Other tenants of a shared machine change its speed by up to 2x from one
    second to the next.  resmatch and the probe slow down together: on a
    shared 2-vCPU x86_64 VM with Python 3.11, alternating the probe with
    `compute` and `verify --exhaustive` for two minutes, the operations'
    10-second medians varied by up to 1.5x while their ratio to the probe
    stayed within about 5%.  Times are therefore reported scaled to the speed
    at which the probe takes REF_S (milliseconds or seconds at that reference
    speed); raw times go to the result record.
    """

    REF_S = 0.0012

    def __init__(self):
        self.edges = workloads.random_graph(random.Random(7), 16, 0.3, False)
        self.size = oracle.nu_general(oracle.nx_graph(16, self.edges))
        self.samples: list[float] = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in oracle.maximum_matchings(16, self.edges, self.size):
            pass
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def timed(self, fn):
        """(fn(), seconds scaled to the reference speed, raw seconds)."""
        before = self()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw * 2 * self.REF_S / (before + self()), raw


class Runner:
    """Runs operations through `cli.main` and keeps the failure tally."""

    def __init__(self, cli, probe: SpeedProbe):
        self.cli, self.probe = cli, probe
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv: list[str], err: io.StringIO):
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception:
            return None, traceback.format_exc(limit=3)

    def run(self, op) -> tuple[float, float]:
        """Execute and check one operation; return its (scaled, raw) seconds."""
        for path in op.writes:
            if os.path.exists(path):
                os.remove(path)
        err = io.StringIO()
        (rc, problem), scaled, raw = self.probe.timed(lambda: self._call(op.argv, err))
        self.attempted += 1
        if problem is None:
            problem = self._check(op, rc, err.getvalue())
        if problem is not None:
            self.failures.append(f"{op.key}: {problem.strip()}")
        return scaled, raw

    @staticmethod
    def _check(op, rc, stderr: str) -> str | None:
        try:
            outputs = {}
            for path in op.reads:
                with open(path) as fh:
                    outputs[path] = fh.read()
            key = oracle.sha256(repr((rc, stderr, sorted(outputs.items()))))
            if key not in op.passed:
                op.check(rc, stderr, outputs)
                op.passed.add(key)
        except Exception as exc:  # a malformed output is a failed operation
            return f"{type(exc).__name__}: {exc}"
        return None


def fresh_cli():
    """Import resmatch afresh and return its CLI module."""
    for name in [n for n in sys.modules if n == "resmatch" or n.startswith("resmatch.")]:
        del sys.modules[name]
    return importlib.import_module("resmatch.cli")


def setup(workload: str, seed: int, wd: str, probe: SpeedProbe):
    """Set up SETUP_REPEATS times; return ((scaled, raw) seconds of each,
    runner, inputs) of the last."""
    generate = workloads.WORKLOADS[workload]
    times = []
    failures: list[str] = []
    attempted = 0
    for rep in range(SETUP_REPEATS):
        d = os.path.join(wd, f"setup{rep}")

        def once():
            runner = Runner(fresh_cli(), probe)
            os.makedirs(d)
            inputs = generate(seed, d, runner.run)
            runner.run(inputs.warmup)
            return runner, inputs

        (runner, inputs), scaled, raw = probe.timed(once)
        times.append((scaled, raw))
        attempted += runner.attempted
        failures += runner.failures
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(d)
    runner.attempted, runner.failures = attempted, failures
    return times, runner, inputs


def latency_stats(samples: dict[str, list[float]]) -> dict:
    """Statistics over every execution; per-operation medians for the record."""
    ranked = sorted(1000 * t for times in samples.values() for t in times)
    n = len(ranked)
    rank = max(n - 10, 1)  # 1-based rank with ten samples above it
    return {"ops_per_s": 1000 * n / sum(ranked), "p50_ms": statistics.median(ranked),
            "tail_ms": ranked[rank - 1], "tail_percentile": 100 * rank / n, "samples": n,
            "per_op_ms": {k: 1000 * statistics.median(v) for k, v in samples.items()}}


def measure(runner: Runner, ops, passes: int) -> dict:
    """Scaled latency statistics, with the raw ones under "raw"."""
    scaled: dict[str, list[float]] = {op.key: [] for op in ops}
    raw: dict[str, list[float]] = {op.key: [] for op in ops}
    start = time.perf_counter()
    for _ in range(passes):
        for op in ops:
            s, r = runner.run(op)
            scaled[op.key].append(s)
            raw[op.key].append(r)
    return {"passes": passes, "wall_s": time.perf_counter() - start,
            **latency_stats(scaled), "raw": latency_stats(raw)}


# ------------------------------------------------------------ tracing


def traced_pass(runner: Runner, ops, tr) -> tuple[dict, Counter, list[float]]:
    first = len(tr.start)
    before = Counter(tr.counters)
    times = []
    for i, op in enumerate(ops):
        tr.begin_op(i)
        times.append(runner.run(op)[0])
    counters = Counter(tr.counters)
    counters.subtract(before)
    return tr.summary(first, len(tr.start)), counters, times


def hk_timings(files, probe: SpeedProbe) -> tuple[float, float]:
    """Scaled seconds of Hopcroft-Karp and of the blossom on the same bipartite graphs."""
    from resmatch.graph import bipartition, parse_graph_file
    from resmatch.matching import max_matching, max_matching_bipartite

    hk = blossom = 0.0
    for path in files:
        with open(path) as fh:
            g = parse_graph_file(fh.read())
        b = bipartition(g)
        a, dt, _ = probe.timed(lambda: max_matching_bipartite(g, b))
        hk += dt
        c, dt, _ = probe.timed(lambda: max_matching(g))
        blossom += dt
        oracle.expect(len(a) == len(c), f"{path}: Hopcroft-Karp {len(a)} != blossom {len(c)}")
    return hk, blossom


def layer_metrics(s: dict, counters: Counter) -> dict:
    def calls(name):
        return s[name][0] if name in s else 0

    def ms(name, col=1):
        return s[name][col] * 1000 if name in s else 0.0

    def self_ms(layer):
        return sum(row[2] for name, row in s.items() if name.split(".")[0] == layer) * 1000

    yielded = counters["spectrum.enum.yielded"]
    mm_calls = calls("matching.max_matching")
    nu2_ops = s["colorable.nu2"][3] if "colorable.nu2" in s else ()
    return {
        "cli.self_ms": self_ms("cli"),
        "graph.self_ms": self_ms("graph"),
        "graph.parse_ms": ms("graph.parse"),
        "graph.emit_calls": calls("graph.emit"),
        "graph.emit_ms": ms("graph.emit"),
        "graph.bipartition_ms": ms("graph.bipartition"),
        "graph.connected_ms": ms("graph.connected"),
        "graph.delete_edges_ms": ms("graph.delete_edges"),
        "matching.self_ms": self_ms("matching"),
        "matching.nu_calls.bound": calls("matching.nu.bound"),
        "matching.nu_ms.bound": ms("matching.nu.bound"),
        "matching.nu_calls.residual": calls("matching.nu.residual"),
        "matching.nu_ms.residual": ms("matching.nu.residual"),
        "matching.max_matching_calls": mm_calls,
        "matching.max_matching_ms": ms("matching.max_matching"),
        "matching.vertices_per_call": counters["matching.vertices"] / mm_calls if mm_calls else 0,
        "matching.seeded_calls": counters["matching.seeded"],
        "matching.validate_calls": calls("matching.validate"),
        "matching.validate_ms": ms("matching.validate"),
        "colorable.self_ms": self_ms("colorable"),
        "colorable.nu2_calls_per_op": calls("colorable.nu2") / len(nu2_ops) if nu2_ops else 0,
        "colorable.nu2_ms": ms("colorable.nu2"),
        "spectrum.self_ms": self_ms("spectrum"),
        "spectrum.enum_self_ms": ms("spectrum.enum", 2),
        "spectrum.matchings_yielded": yielded,
        "spectrum.bound_nu_per_matching": calls("matching.nu.bound") / yielded if yielded else 0,
        "reduction.self_ms": self_ms("reduction"),
        "reduction.build_ms": ms("reduction.build"),
        "reduction.verify_self_ms": ms("reduction.verify", 2),
        "reduction.decode_calls": calls("reduction.decode"),
        "reduction.decode_ms": ms("reduction.decode"),
    }


def trace_run(runner: Runner, inputs, workload: str, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics from two traced passes, and detail for the record."""
    probe = runner.probe
    untraced = measure(runner, inputs.ops, 2)["per_op_ms"]
    tr = tracer.Tracer()
    first_probe = len(probe.samples)
    tr.install()
    try:
        passes = [traced_pass(runner, inputs.ops, tr) for _ in range(2)]
    finally:
        tr.uninstall()
    # span times are scaled by the probe's median over the traced passes
    scale = probe.REF_S / statistics.median(probe.samples[first_probe:])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = [layer_metrics(s, c) for s, c, _ in passes]
    out = {}
    for name, first in metrics[0].items():
        out[name] = (first + metrics[1][name]) / 2 * scale if units[name] == "ms" else first
    counts = [{**{k: v[0] for k, v in s.items()}, **c,
               **{k: v for k, v in m.items() if units[k] != "ms"}}
              for (s, c, _), m in zip(passes, metrics)]
    differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k))
    if differ:
        runner.failures.append(f"trace: counts differ between two traced passes: {differ}")
    try:
        hk, blossom = hk_timings(inputs.bipartite_files, probe)
    except oracle.CheckError as exc:
        runner.failures.append(f"trace: {exc}")
        hk = blossom = 0.0
    out["matching.hk_ms"] = hk * 1000
    out["matching.blossom_ms_hk_inputs"] = blossom * 1000
    traced = [(a + b) * 500 for a, b in zip(passes[0][2], passes[1][2])]
    out["trace.overhead_ratio"] = sum(traced) / sum(untraced.values())
    out["src.loc"] = src_facts()["src_loc"]
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    tr.write(os.path.join(WORK, "spans", f"{workload}-seed{seed}.csv"))
    detail = {"span_time_scale": scale, "counters": dict(passes[0][1]),
              "spans": {k: {"calls": v[0], "ms": v[1] * 1000, "self_ms": v[2] * 1000}
                        for k, v in sorted(passes[0][0].items())}}
    return out, detail


# ------------------------------------------------------------ entry points


def run_workload(workload: str, seed: int, seconds: int, trace: bool, out_path: str | None) -> int:
    wd = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(wd)
    try:
        probe = SpeedProbe()
        setup_times, runner, inputs = setup(workload, seed, wd, probe)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "setup_times_s": setup_times}
        if trace:
            metrics, record["trace_detail"] = trace_run(runner, inputs, workload, seed)
        else:
            m = measure(runner, inputs.ops, max(1, round(seconds / PASS_S)))
            record["measure"] = m
            metrics = {
                "ops_per_s": m["ops_per_s"],
                "latency_p50_ms": m["p50_ms"],
                "latency_tail_ms": m["tail_ms"],
                "ok_ratio": 1 - len(runner.failures) / runner.attempted,
                "setup_s": statistics.median(s for s, _ in setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record.update(result, fail_ratio=len(runner.failures) / runner.attempted,
                  failures=runner.failures[:20], env=environment(),
                  probe_median_s=statistics.median(probe.samples))
    if out_path is None:
        out_path = os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for msg in runner.failures[:5]:
        print("FAILED " + msg, file=sys.stderr)
    for k in units:
        print(f"{workload:20s} {k:34s} {metrics[k]:14.4f} {units[k]}")
    if not trace:
        print(f"{workload:20s} {'fail_ratio':34s} {record['fail_ratio']:14.4f} ratio")
        print(f"{workload:20s} tail at p{record['measure']['tail_percentile']:.1f} of"
              f" {record['measure']['samples']} executions")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process; prints their lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def load_results(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if "workload" in rec:
            out.append(rec)
    return out


def compare(old: str, new: str) -> int:
    """Median of each metric per workload on both sides, and the change."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    sides = []
    for path in (old, new):
        groups: dict = {}
        records = load_results(path)
        for rec in records:
            for k, v in rec["metrics"].items():
                groups.setdefault((rec["workload"], k), []).append(v["value"])
        sides.append(groups)
        envs = {(r["env"]["commit"], r["env"]["python"], r["env"]["nproc"], r["env"]["src_loc"])
                for r in records}
        print(f"{path}: commit, python, nproc, src.loc = {sorted(envs, key=str)}")
    print(f"{'workload':20s} {'metric':34s} {'old':>12s} {'new':>12s} {'change':>8s}  runs  verdict")
    for key in sorted(set(sides[0]) & set(sides[1])):
        a, b = (statistics.median(side[key]) for side in sides)
        spec = bounds.get(key[1], {})
        change = (b - a) / a if a else 0.0
        worse = change if spec.get("better") == "lower" else -change
        verdict = ""
        if "bound" in spec:
            verdict = "WORSE beyond bound" if worse > spec["bound"] else "within bound"
        print(f"{key[0]:20s} {key[1]:34s} {a:12.4f} {b:12.4f} {change:+8.1%}"
              f"  {len(sides[0][key])}/{len(sides[1][key])}  {verdict}")
    return 0


def make_reference() -> int:
    wd = os.path.join(WORK, f"reference-{os.getpid()}")
    os.makedirs(wd)
    try:
        runner = Runner(fresh_cli(), SpeedProbe())
        ref = {"compute-random": workloads.make_compute_reference(),
               "bench-sweep": workloads.make_bench_reference(wd, runner.run)}
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result record path")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "resmatch", "cli.py")):
        print(f"error: no resmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
