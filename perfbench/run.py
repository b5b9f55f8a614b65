#!/usr/bin/env python3
"""compgap benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; compgap is imported from its src/.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones:

  ops_per_ref_s      ops completed and verified per second of time spent
                     inside compgap calls (oracle checks are not timed),
                     scaled to a host of reference speed: a fixed loop
                     (reference.py) runs after every batch for a quarter of
                     its time, and the rate is divided by that loop's speed
                     relative to nominal, so drift in a shared host's speed
                     cancels out
  setup_s            median over fresh processes, spread over the run, of
                     the time from before `import compgap` to the end of
                     building the workload's objects with the public
                     constructors
  peak_rss_mb        ru_maxrss of this process
  verified_fraction  1 - error_rate, ops that passed their oracle check

With --trace 1 a fixed number of batches per --seconds runs twice, traced
(spans.Tracer) and then untraced, and the metrics are the per-layer ones from the traced pass plus
trace.overhead (traced over untraced wall).  The two passes must print the
same outcome digest.  Any failed oracle or aggregate check makes the exit
code 1; a checkout without src/compgap makes it 2, with no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
REF_SHARE = 0.25

from reference import Reference  # noqa: E402
from workloads import WORKLOADS, Pass, Workload  # noqa: E402


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports 'unknown'."""
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


def probe_setup(workload: str, seed: int) -> float:
    """setup_s of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _metric(value, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def untraced(w: Workload, seconds: float, record: dict) -> tuple:
    w.setup()
    w.oracles()
    p = Pass()
    ref = Reference()
    # the set-up probes are spread over the run, between batches, so that
    # setup_s and ops_per_ref_s sample the same stretch of machine load;
    # probe time does not count towards --seconds, reference time does
    probes: List[float] = []
    probe_s = 0.0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start - probe_s
        if len(probes) < SETUP_PROBES and \
                elapsed >= len(probes) * seconds / SETUP_PROBES:
            t0 = perf_counter()
            probes.append(probe_setup(w.name, w.seed))
            probe_s += perf_counter() - t0
        elif p.batches < w.digest_batches or elapsed < seconds:
            before = p.program_s
            p.run(w, p.batches)
            ref.run_for(REF_SHARE * (p.program_s - before))
        else:
            break
    p.wall = perf_counter() - start - probe_s
    checks = p.errors + w.final_checks(p)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_per_s = p.ops / p.program_s
    record.update(setup_probes_s=probes, wall_s=p.wall, program_s=p.program_s,
                  ops_per_s=ops_per_s, reference_units=ref.units,
                  reference_s=ref.seconds, host_speed=ref.speed(),
                  digest=p.prefix_digest, digest_batches=w.digest_batches)
    metrics = {
        "ops_per_ref_s": _metric(ops_per_s / ref.speed(), "ops/s"),
        "setup_s": _metric(statistics.median(probes), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "verified_fraction": _metric(1 - p.failed / p.ops, "fraction"),
    }
    return p, checks, metrics


def _percentiles(values: List[float]) -> tuple:
    """(p50, tail, tail percentile): the tail is the highest percentile
    with at least ten samples beyond it, i.e. the 11th largest value."""
    if not values:
        return 0.0, 0.0, 0.0
    xs = sorted(values)
    n = len(xs)
    p50 = statistics.median(xs)
    if n <= 10:
        return p50, 0.0, 0.0
    return p50, xs[n - 11], 100.0 * (n - 10) / n


def traced(w: Workload, seconds: float, record: dict) -> tuple:
    from spans import LAYERS, Tracer

    plain = type(w)(w.seed, w.out_dir)
    w.oracles()
    plain.oracles()
    tracer = Tracer()
    # the traced set-up goes first, so it is the one that fills the caches
    tracer.install()
    try:
        t0 = perf_counter()
        w.setup()
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    plain.setup()
    # traced and untraced batches alternate, each side going first in turn,
    # so drift in the machine's speed cancels out of trace.overhead
    pt, pu = Pass(), Pass()
    for i in range(max(w.digest_batches,
                       math.ceil(seconds * w.trace_batches_per_s))):
        for traced_side in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_side:
                tracer.install()
                try:
                    t0 = perf_counter()
                    tracer.start_op(i)
                    pt.run(w, i)
                    pt.wall += perf_counter() - t0
                finally:
                    tracer.uninstall()
            else:
                t0 = perf_counter()
                pu.run(plain, i)
                pu.wall += perf_counter() - t0
    wall += pt.wall
    checks = (pt.errors + pu.errors + w.final_checks(pt)
              + plain.final_checks(pu))
    if pt.digest() != pu.digest():
        checks.append("traced and untraced passes differ: "
                      f"{pt.digest()} != {pu.digest()}")
    rep = tracer.report(wall)
    tracer.write(w.out_dir / "spans.csv")

    c, calls, self_s = tracer.counts, rep["calls"], rep["self_s"]
    m: Dict[str, Dict[str, object]] = {}

    def count(name: str, value) -> None:
        m[name] = _metric(value, "count")

    def secs(name: str, value: float) -> None:
        m[name] = _metric(value, "s")

    def timing(prefix: str, values: List[float]) -> None:
        p50, tail, pct = _percentiles(values)
        m[prefix + ".p50_ms"] = _metric(p50, "ms")
        m[prefix + ".tail_ms"] = _metric(tail, "ms")
        m[prefix + ".tail_pct"] = _metric(pct, "%")

    for path in ("clean", "corrected", "failed"):
        count("ecc.decode." + path, c["ecc.decode." + path])
    secs("ecc.decode.self_s", self_s["ecc.decode"])
    timing("ecc.decode_corrected", tracer.samples["ecc.decode_corrected.ms"])
    count("ecc.encode.calls", calls["ecc.encode"])
    secs("ecc.encode.self_s", self_s["ecc.encode"])

    count("ots.toy_hash.calls", calls["ots.toy_hash"])
    secs("ots.toy_hash.self_s", self_s["ots.toy_hash"])
    for name in ("kgen", "sign", "verify"):
        secs(f"ots.{name}.self_s", self_s["ots." + name])
    count("ots.verify.calls", calls["ots.verify"])
    count("ots.forge.calls", calls["ots.forge"])
    count("ots.forge.failed", c["ots.forge.failed"])
    secs("ots.index.build_s", rep["dur_s"]["ots.index.build"])

    for name in ("sample", "classify"):
        count(f"constructions.{name}.calls", calls["constructions." + name])
        secs(f"constructions.{name}.self_s", self_s["constructions." + name])
    label0 = c["constructions.c3_label0_samples"]
    m["constructions.c3_sig_attempts_per_sample"] = _metric(
        c["constructions.c3_label0_verify"] / label0 if label0 else 0.0,
        "verify/sample")
    count("constructions.c3_label0_samples", label0)

    for name in ("bounded_c1", "unbounded_c1", "bounded_c3", "unbounded_c3"):
        count(f"attackers.{name}.calls", calls["attackers." + name])
        secs(f"attackers.{name}.self_s", self_s["attackers." + name])
        count(f"attackers.{name}.tampered", c[f"attackers.{name}.tampered"])

    count("game.play.calls", calls["game.play"])
    secs("game.play.self_s", self_s["game.play"])
    timing("game.play", rep["play_ms"])
    secs("game.estimator.self_s", self_s["game.estimator"])
    for reason in ("misclassified_untampered", "tamper_win",
                   "budget_exceeded", "detected_star", "correct_label"):
        count("game.reason." + reason, c["game.reason." + reason])

    count("base_problems.sample.calls", calls["base_problems.sample"])
    secs("base_problems.sample.self_s", self_s["base_problems.sample"])
    secs("base_problems.classify.self_s", self_s["base_problems.classify"])

    count("samplers.compile.calls", calls["samplers.compile"])
    secs("samplers.compile.self_s", self_s["samplers.compile"])
    for name, unit in (("vars", "vars/formula"),
                       ("clauses", "clauses/formula")):
        xs = tracer.samples["samplers." + name]
        m["samplers." + name] = _metric(
            statistics.fmean(xs) if xs else 0.0, unit)
    secs("samplers.check_witness.self_s", self_s["samplers.check_witness"])

    secs("cnf.encode.self_s", self_s["cnf.encode"])
    secs("cnf.write_dimacs.self_s", self_s["cnf.write_dimacs"])
    m["cnf.write_dimacs.bytes"] = _metric(c["cnf.write_dimacs.bytes"], "B")

    count("circuits.eval.calls", calls["circuits.eval"])
    secs("circuits.eval.self_s", self_s["circuits.eval"])

    count("solver.solve.calls", calls["solver.solve"])
    secs("solver.solve.self_s", self_s["solver.solve"])
    for status in ("sat", "unsat", "cap_exceeded"):
        count("solver." + status, c["solver." + status])
    m["solver.s1.p50_ms"] = _metric(
        _percentiles(tracer.samples["solver.s1.ms"])[0], "ms")
    timing("solver.s2", tracer.samples["solver.s2.ms"])
    count("solver.s2.samples", len(tracer.samples["solver.s2.ms"]))

    secs("cli.self_s", self_s["cli.main"])
    m["cli.bytes_written"] = _metric(c["cli.bytes_written"], "B")

    for layer in LAYERS:
        secs(f"layer.{layer}.self_s", rep["layer"][layer])
    secs("bench.self_s", rep["bench"])
    secs("trace.wall_s", wall)
    count("trace.spans", len(tracer.spans))
    m["trace.overhead"] = _metric(pt.wall / pu.wall, "ratio")

    attributed = sum(rep["layer"].values()) + rep["bench"]
    record.update(
        wall_s=wall, traced_pass_s=pt.wall, untraced_pass_s=pu.wall,
        digest=pt.prefix_digest, untraced_digest=pu.prefix_digest,
        digest_batches=w.digest_batches, attributed_s=attributed,
        min_span_self_s=rep["min_self_s"], spans_file=str(
            (w.out_dir / "spans.csv").relative_to(ROOT)))
    merged = Pass()
    merged.ops, merged.failed = pt.ops + pu.ops, pt.failed + pu.failed
    merged.batches, merged.agg = pt.batches, pt.agg
    return merged, checks, m


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    t_start = perf_counter()
    src = ROOT / "src"
    if not (src / "compgap" / "__init__.py").is_file():
        print(f"error: no compgap package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = ROOT / ".perfbench-out" / (
        f"{args.workload}-{args.seed}-trace{args.trace}")
    w = WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_probe:
        w.out_dir = out_dir.with_name(out_dir.name + f"-probe{os.getpid()}")
        w.setup()
        elapsed = perf_counter() - t_start
        shutil.rmtree(w.out_dir, ignore_errors=True)
        print(repr(elapsed))
        return 0

    import numpy
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op": w.op, "params": w.params,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": git_revision(),
        "load_before": os.getloadavg(),
    }
    run = traced if args.trace else untraced
    p, checks, metrics = run(w, args.seconds, record)
    record.update(load_after=os.getloadavg(), batches=p.batches,
                  ops=p.ops, failed=p.failed, counts=p.agg, checks=checks)
    error_rate = p.failed / p.ops
    record["error_rate"] = error_rate
    correct = p.failed == 0 and not checks
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "ops_per_s" in record:
        print(f"ops_per_s = {record['ops_per_s']:.6g} ops/s (unscaled; host "
              f"speed {record['host_speed']:.3f} of nominal)")
    print(f"error_rate = {error_rate:.6g} fraction ({p.failed} of {p.ops})")
    print(f"digest = {record['digest']} (first {w.digest_batches} batches)")
    for msg in checks:
        print(f"FAILED CHECK: {msg}")
    print(f"record = {(out_dir / 'record.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": p.ops,
                      "failed": p.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
