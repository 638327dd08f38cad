#!/usr/bin/env python3
"""Benchmark of bdm: the `decide`, `back-and-forth` and `cli` workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one
                                                          # fresh interpreter each

Run from anywhere inside a checkout: the program under test is imported
from the checkout's `src`, never from an installed copy.  Each run builds
its inputs from the seed, runs one closed-loop client for `--seconds`,
checks every answer against an independent route outside the timed region,
and prints one JSON object as its last line of stdout.  With `--trace 0` the
object holds the end-to-end metrics; with `--trace 1` a run first measures
untraced, then runs one traced pass and reports the per-layer metrics.
`--tiny` shrinks every workload for the self-check in `selfcheck.py`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("decide", "back-and-forth", "cli")
SETUP_PROBES = 5
# The cli runs whole passes, as many as fit --seconds at this nominal pass
# time.  A fixed count keeps the tail percentile on the same command from
# run to run; a count read off the clock would move it between commands.
CLI_PASS_S = 6.0

E2E_UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}
SHARE_UNITS = {"undecided_share": "ratio", "failed_share": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_bdm():
    """Import bdm from the checkout's src; exit 2 when it is not there."""
    if not (SRC / "bdm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'bdm'}; run inside a checkout of bdm")
    sys.path.insert(0, str(SRC))
    import bdm

    if Path(bdm.__file__).resolve().parent != SRC / "bdm":
        sys.exit(f"perfbench: imported bdm from {bdm.__file__}, not from {SRC}")
    import bdm.terms  # noqa: F401  (the adapters build ASTs from it)

    return bdm


def make_workload(name: str, bdm, tiny: bool, work: Path = WORK):
    import workloads as W

    if name == "decide":
        return W.Decide(bdm, tiny)
    if name == "back-and-forth":
        return W.BackAndForth(bdm, tiny)
    return W.Cli(tiny, work, SRC, HERE / "cli_entry.py")


# ---------------------------------------------------------------------------
# environment


def commit() -> str:
    """The checked-out commit, read from .git without running git (the
    benchmark's checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "commit": commit(), "loadavg_start": loadavg()}


# ---------------------------------------------------------------------------
# measurement


def probe_setup(args) -> tuple[list[float], list[float], set[str]]:
    """Set-up time, from interpreter start to the point where the first op
    would run, in fresh interpreters; returns the raw times, the times at the
    nominal machine speed (scaled by reference samples taken just before and
    just after each probe) and the digests."""
    times, scaled, digests = [], [], set()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_PROBES):
        before = machine.sample(machine.MAX_BURST)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=170)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * machine.scale(before + machine.sample(machine.MAX_BURST)))
        digests.add(proc.stdout.decode().strip() if proc.returncode == 0 else "probe failed")
    return times, scaled, digests


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten values beyond
    it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def op_latencies(lat: list[tuple[int, float]], scales: list[float],
                 per_execution: bool) -> list[float]:
    """The latencies the metrics are taken over: each execution scaled to
    the nominal machine speed, then each op at the median of its repeats.

    In-process workloads give one latency per distinct op: a pass holds
    over a thousand, so the tail rank lands on the eleventh slowest op.  The
    cli's pass holds twelve commands, so it gives one latency per execution;
    its fixed pass count then keeps the tail rank on the same command."""
    runs: dict[int, list[float]] = {}
    for (k, x), c in zip(lat, scales):
        runs.setdefault(k, []).append(x * c)
    typical = {k: statistics.median(xs) for k, xs in runs.items()}
    if per_execution:
        return [typical[k] for k, _ in lat]
    return list(typical.values())


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def clear_caches():
    """Empty every lru_cache in the package, so a traced pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "bdm" or name.startswith("bdm."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def outcome_counts(wl, lat, answers, bad) -> tuple[int, int, int]:
    attempted = len(lat)
    failed = sum(1 for k, _ in lat if k in bad)
    undecided = sum(1 for k, _ in lat if k not in bad and wl.undecided(k, answers[k]))
    return attempted, failed, undecided


def check_answers(wl, answers) -> tuple[dict[int, str], bool]:
    """Failures per op, and whether the verifier rejected a planted wrong
    answer (a verifier that accepts it would pass vacuously).  With no right
    answer to corrupt, nothing is planted."""
    import workloads as W

    bad = {k: a.reason for k, a in answers.items() if isinstance(a, W.OpError)}
    good = {k: a for k, a in answers.items() if k not in bad}
    bad.update(wl.verify(good))
    planted = wl.plant({k: a for k, a in good.items() if k not in bad})
    live = set(planted) <= set(wl.verify(planted))
    return bad, live


def run_one(args, bdm) -> dict:
    import workloads as W

    env = environment()
    wl = make_workload(args.workload, bdm, args.tiny)
    digest = wl.setup(args.seed)
    passes = (1 if args.tiny else max(1, round(args.seconds / CLI_PASS_S))) if wl.per_pass else None
    calibration = machine.Calibration()
    lat, wall, answers, changed = W.timed_loop(wl, args.seconds, passes, calibration.tick)
    rss = peak_rss_mb(children=wl.per_pass)
    report = {"workload": args.workload, "seed": args.seed, "digest": digest, "env": env,
              "ops_per_pass": len(wl.ops)}
    metrics = {}
    if args.trace:
        metrics = traced_pass(wl, lat, answers, changed)
    probe_times, probe_scaled, probe_digests = probe_setup(args)
    bad, live = check_answers(wl, answers)
    attempted, failed, undecided = outcome_counts(wl, lat, answers, bad)
    scales = calibration.op_scales()
    latencies = op_latencies(lat, scales, per_execution=wl.per_pass)
    tail_value, tail_pct = tail(latencies)
    e2e = {
        "ops_per_s": len(latencies) / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_value * 1e3,
        "setup_s": statistics.median(probe_scaled),
        "peak_rss_mb": rss,
    }
    shares = {"undecided_share": undecided / attempted, "failed_share": failed / attempted}
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        for name, value in shares.items():
            metrics[name] = {"value": value, "unit": SHARE_UNITS[name]}
    problems = []
    if changed:
        problems.append(f"{len(changed)} ops answered differently across passes")
    if probe_digests != {digest}:
        problems.append(f"set-up probes generated other inputs: {sorted(probe_digests)}")
    if not live:
        problems.append("a verifier accepted a planted wrong answer")
    env["loadavg_end"] = loadavg()
    report.update({
        "end_to_end": e2e | shares,
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "passes": len(lat) / len(wl.ops),
        "ops_per_s_wall": len(lat) / wall,
        "median_scale": statistics.median(scales),
        "reference_samples": len(calibration.times),
        "setup_runs_s": probe_times,
        "failures": {str(k): reason for k, reason in sorted(bad.items())},
        "problems": problems,
    })
    return {"report": report, "result": {"correct": not problems, "attempted": attempted,
                                         "failed": failed, "metrics": metrics}}


def traced_pass(wl, lat, answers, changed) -> dict:
    """One pass over every op with spans on, after the untraced window; the
    traced answers must equal the untraced ones.  The tracing overhead
    compares each op's traced time with its first untraced time: both ran
    with empty caches, the first in a fresh interpreter and the traced one
    after the caches were cleared."""
    import workloads as W
    from spans import Tracer

    clear_caches()
    tracer = Tracer()
    tracer.install()
    traced: dict[int, float] = {}
    try:
        if isinstance(wl, W.BackAndForth):
            wl.rebuild_stages()
        if isinstance(wl, W.Cli):
            wl.trace_dir = WORK / "spans"
            wl.trace_dir.mkdir(parents=True, exist_ok=True)
        for k in range(len(wl.ops)):
            tracer.op = k
            t0 = time.perf_counter()
            try:
                answer = wl.run_op(k)
            except Exception as e:  # counted as a change; the pass goes on
                answer = W.OpError(f"{type(e).__name__}: {e}")
            traced[k] = time.perf_counter() - t0
            if answer != answers.get(k, answer):
                changed.add(k)
            if isinstance(wl, W.Cli):
                tracer.merge(wl.trace_dir / f"{k}.spans", k)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{wl.name}.bin")
    first: dict[int, float] = {}
    for k, x in lat:
        first.setdefault(k, x)
    shared = [k for k in traced if k in first]
    untraced_rate = len(shared) / sum(first[k] for k in shared)
    traced_rate = len(shared) / sum(traced[k] for k in shared)
    return layer_metrics(wl, tracer, traced_rate, untraced_rate, lat)


LAYERS = (
    "algebra.algebra_over", "algebra.generated_subalgebra", "algebra.find_isomorphism_over",
    "algebra.compose_refinements", "terms.eval_formula", "solver.witness_abstract",
    "solver.triple_of_element", "model.ec_stage", "model.realizer",
)
SELF_ONLY = (
    "solver.witness_via_four_power", "solver.realizations", "model.find_matching_element",
    "oracle.find_realizer", "oracle.oracle_witness_search", "textio.format_stage",
    "textio.format_witness", "textio.parse_algebra", "textio.parse_triple",
    "textio.parse_element", "cli.main",
)


def layer_metrics(wl, tracer, traced_ops_per_s, untraced_ops_per_s, lat) -> dict:
    summary = tracer.summary()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    for name in LAYERS:
        put(f"{name}.calls", row(name)["calls"], "count")
        put(f"{name}.self_s", row(name)["self_s"], "s")
    for name in SELF_ONLY:
        put(f"{name}.self_s", row(name)["self_s"], "s")
    put("solver.sigma_consistent_triples.calls", row("solver.sigma_consistent_triples")["calls"],
        "count")
    put("solver.sigma_consistent_triples.triples",
        counts.get("solver.sigma_consistent_triples.triples", 0), "count")
    put("solver.triples_per_verdict", row("solver.witness_abstract")["calls"] / len(wl.ops), "1/op")
    hits = counts.get("solver.witness_abstract.hits", 0)
    misses = counts.get("solver.witness_abstract.misses", 0)
    put("solver.witness_abstract.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
        "ratio")
    put("model.ec_stage.realizers", counts.get("model.ec_stage.realizers", 0), "count")
    put("oracle.elements_scanned", counts.get("oracle.elements_scanned", 0), "count")
    put("textio.format_stage.bytes", counts.get("textio.format_stage.bytes", 0), "B")
    startup = [x for k, x in lat if wl.name == "cli" and wl.ops[k]["argv"][0] == "check"]
    put("cli.startup_ms", min(startup) * 1e3 if startup else 0.0, "ms")
    put("trace.ops_per_s_untraced", untraced_ops_per_s, "1/s")
    put("trace.ops_per_s_traced", traced_ops_per_s, "1/s")
    put("trace.overhead_share", 1.0 - traced_ops_per_s / untraced_ops_per_s, "ratio")
    return out


# ---------------------------------------------------------------------------
# output


def print_run(report: dict, result: dict):
    r = report
    print(f"workload {r['workload']}  seed {r['seed']}  inputs {r['digest']}  "
          f"ops/pass {r['ops_per_pass']}  passes {r['passes']:.2f}")
    print("env " + json.dumps(r["env"], sort_keys=True))
    units = E2E_UNITS | SHARE_UNITS
    for name, value in r["end_to_end"].items():
        extra = ""
        if name == "tail_ms":
            extra = f"  (p{r['tail_percentile']:.2f} of {r['tail_samples']} ops)"
        print(f"  {name:<16} {value:>14.6g} {units[name]}{extra}")
    print(f"verification: {result['attempted']} attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    for k, reason in list(r["failures"].items())[:10]:
        print(f"  op {k} failed: {reason}")
    for problem in r["problems"]:
        print(f"  problem: {problem}")
    print("report " + json.dumps(r, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own interpreter, so no workload inherits
    another's caches."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                              text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bdm = load_bdm()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        wl = make_workload(args.workload, bdm, args.tiny, WORK / "probe")
        print(wl.setup(args.seed), flush=True)
        os._exit(0)  # the set-up ends here; skip tearing the inputs down
    try:
        out = run_one(args, bdm)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print_run(out["report"], out["result"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
