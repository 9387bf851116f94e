"""End-to-end and per-layer benchmark of wblow's centers and blowup trees.

Run from the repository root:

    python3 perfbench/run.py --workload generic --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload trees --trace 1
    python3 perfbench/run.py                    # every workload, both passes
    python3 perfbench/run.py --self-test        # traced counts repeat exactly
    python3 perfbench/run.py --record           # rewrite expected_roots.json

One single-threaded process runs one workload as a closed loop with a
single client: each case is one call into the package's public functions,
started when the previous one has returned and been checked.  Every case
has the same time limit, enforced in-process with an interval timer.

``--trace 0`` is the timed pass.  It runs as many whole passes over the
workload's cases as fit in ``--seconds`` of case time, at least one, and
prints the end-to-end metrics.  ``--trace 1`` runs one untraced pass and then one
traced pass over the same cases, and prints the per-layer metrics taken
from spans around the package's layers (see spans.py).  A case that timed
out in the untraced pass is not traced: its partial work would make the
counts differ from run to run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is
the number of distinct cases and ``failed`` the number of them that did
not end in a checked correct answer in some pass.  Statuses, case ids,
the environment and the spans are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
DEFAULT_SEED = 0

# Per-case limit.  The slowest solved case, x^3 + y^6 + z^6, takes about
# 3 s (Python 3.11, pure-Python kernel, one vCPU of a 2-vCPU VM), so no
# solved case comes within 2x of the limit and no status flips between
# runs; x^4 + y^4 + z^4 runs past it.
CASE_LIMIT_S = 8.0
# the traced pass is slower; its limit only has to let the cases that
# finished untraced finish again
TRACED_LIMIT_S = 3 * CASE_LIMIT_S
SETUP_SAMPLES = 7

E2E_UNITS = {
    "setup_s": "s",
    "solved_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span whose self time it is, or None for a count)
LAYER_METRICS = {
    "canonical.calls": ("count", None),
    "canonical.center_s": ("s", "canonical.center"),
    "ideals.canon_calls": ("count", None),
    "ideals.canon_s": ("s", "ideals.canon"),
    "ideals.gens_in": ("count", None),
    "ideals.gens_kept": ("count", None),
    "ideals.kept_ratio": ("ratio", None),
    "ideals.max_gens": ("count", None),
    "ideals.derivative_s": ("s", "ideals.derivative"),
    "ideals.power_s": ("s", "ideals.power"),
    "contact.find_calls": ("count", None),
    "contact.find_s": ("s", "contact.find"),
    "contact.restrict_s": ("s", "contact.restrict"),
    "contact.solve_calls": ("count", None),
    "contact.solve_s": ("s", "contact.solve"),
    "contact.max_rows": ("count", None),
    "center.graph_normalize_s": ("s", "center.graph_normalize"),
    "center.admissible_calls": ("count", None),
    "center.admissible_s": ("s", "center.admissible"),
    "blowup.chart_s": ("s", "blowup.chart"),
    "blowup.transform_calls": ("count", None),
    "blowup.transform_s": ("s", "blowup.transform"),
    "driver.run_s": ("s", "driver.run"),
    "driver.nodes": ("count", None),
    "driver.steps": ("count", None),
    "driver.max_depth": ("count", None),
    "kernel.mul_calls": ("count", None),
    "kernel.mul_s": ("s", "kernel.mul"),
    "kernel.terms_out": ("count", None),
    "arith.substitute_s": ("s", "arith.substitute"),
    "arith.translate_s": ("s", "arith.translate"),
    "arith.max_coeff_bits": ("bits", None),
    "trace.overhead_s": ("s", None),
}
# counts that must repeat exactly between two traced runs of one seed
EXACT = (
    "driver.nodes",
    "driver.steps",
    "ideals.gens_kept",
    "kernel.mul_calls",
    "arith.max_coeff_bits",
)


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    for ordinary errors can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


# -- loading the package and the inputs ----------------------------------------


def load_wblow():
    if not (SRC / "wblow" / "__init__.py").is_file():
        raise SystemExit("perfbench: no package source at %s" % (SRC / "wblow"))
    sys.path.insert(0, str(SRC))
    wblow = importlib.import_module("wblow")
    if Path(wblow.__file__).resolve().parent != SRC / "wblow":
        raise SystemExit("perfbench: imported wblow from %s, not %s" % (wblow.__file__, SRC))
    return wblow


def setup(workload: str, seed: int):
    """Import the package and parse the workload; returns (wblow, inputs, s)."""
    t0 = time.perf_counter()
    wblow = load_wblow()
    inputs = []
    for case in corpus.build(workload, seed):
        gens = [wblow.parse_polynomial(g, case.variables) for g in case.generators]
        inputs.append((case, wblow.LocalIdeal(case.variables, gens)))
    return wblow, inputs, time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, so the import is real."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


# -- running cases -------------------------------------------------------------


def entry(wblow, mode: str):
    return {
        "center": wblow.canonical_center,
        "principalize": wblow.principalize,
        "resolve": wblow.embedded_resolve,
    }[mode]


def run_case(call, ideal, limit: float):
    """(status, result, seconds) of one call under the time limit."""
    t0 = time.perf_counter()
    result = None
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = call(ideal)
            status = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        status = "timeout"
    except Exception as exc:  # the failure taxonomy records any named error
        status = type(exc).__name__
    return status, result, time.perf_counter() - t0


def judge(case, ideal, status, result, expected):
    """Final status: a returned answer that fails a check is ``wrong``."""
    if status != "ok":
        return status, None
    if case.mode != "center" and result.status not in ("principal", "smooth"):
        return "exhausted", None
    try:
        reason = oracles.check(case, ideal, result, expected)
    except Exception as exc:  # a check that cannot run counts against the answer
        reason = "check raised %s: %s" % (type(exc).__name__, exc)
    return ("wrong", reason) if reason else ("ok", None)


def untraced_pass(wblow, inputs, expected, statuses, reasons, times):
    """One pass over every case; returns the seconds spent in the package."""
    spent = 0.0
    for case, ideal in inputs:
        status, result, dt = run_case(entry(wblow, case.mode), ideal, CASE_LIMIT_S)
        status, reason = judge(case, ideal, status, result, expected)
        statuses.setdefault(case.id, []).append(status)
        if reason:
            reasons.setdefault(case.id, reason)
        times.append((case.id, status, dt))
        spent += dt
    return spent


def percentile_ms(sorted_times, q: float) -> float:
    """Nearest-rank percentile; at least ten samples must lie above it."""
    n = len(sorted_times)
    rank = math.ceil(q * n)
    if n - rank < 10:
        raise SystemExit("perfbench: %d executions leave fewer than ten above p%d" % (n, q * 100))
    return sorted_times[rank - 1] * 1000.0


def summarize_statuses(statuses):
    """attempted, failed, per-status counts and cases whose status changed."""
    counts = {}
    changed = []
    failed = 0
    for case_id, seen in statuses.items():
        counts[seen[0]] = counts.get(seen[0], 0) + 1
        if len(set(seen)) > 1:
            changed.append(case_id)
        if any(s != "ok" for s in seen):
            failed += 1
    return len(statuses), failed, dict(sorted(counts.items())), sorted(changed)


# -- the two kinds of run ------------------------------------------------------


def timed_run(args, wblow, inputs, expected):
    """Whole passes over the cases: one, then more while another pass as
    long as the last one still fits in --seconds of case time."""
    statuses, reasons, times = {}, {}, []
    pass_seconds = []
    while not pass_seconds or sum(pass_seconds) + pass_seconds[-1] <= args.seconds:
        pass_seconds.append(untraced_pass(wblow, inputs, expected, statuses, reasons, times))
    spent = sum(pass_seconds)
    durations = sorted(dt for _, _, dt in times)
    solved = sum(1 for _, status, _ in times if status == "ok")
    metrics = {
        "setup_s": setup_seconds(args.workload, args.seed),
        "solved_per_s": solved / spent,
        "case_p50_ms": statistics.median(durations) * 1000.0,
        "case_p90_ms": percentile_ms(durations, 0.9),
        "solved_frac": solved / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(pass_seconds), "pass_seconds": pass_seconds, "case_seconds": spent}
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, statuses, reasons, info


def traced_run(args, wblow, inputs, expected):
    from spans import Tracer

    statuses, reasons, times = {}, {}, []
    untraced_pass(wblow, inputs, expected, statuses, reasons, times)
    untraced = {case_id: (status, dt) for case_id, status, dt in times}

    tracer = Tracer()
    tracer.install(wblow)
    traced_s = untraced_s = 0.0
    trees = []
    try:
        for case, ideal in inputs:
            if untraced[case.id][0] == "timeout":
                continue
            before = dict(tracer.counts)
            call = tracer.wrap("case", entry(wblow, case.mode))
            status, result, dt = run_case(call, ideal, TRACED_LIMIT_S)
            tracer.close_all()
            if status == "timeout":
                # partial work is not repeatable; keep only its time
                tracer.counts.update(before)
            elif result is not None and case.mode != "center":
                trees.append(result)
            statuses[case.id].append(status)
            traced_s += dt
            untraced_s += untraced[case.id][1]
    finally:
        tracer.uninstall()

    own = tracer.self_times()
    counts = dict(tracer.counts)
    counts["ideals.kept_ratio"] = counts["ideals.gens_kept"] / max(1, counts["ideals.gens_in"])
    counts["driver.nodes"] = sum(len(t.nodes) for t in trees)
    counts["driver.steps"] = sum(t.steps for t in trees)
    counts["driver.max_depth"] = max((n.depth for t in trees for n in t.nodes.values()), default=0)
    counts["trace.overhead_s"] = traced_s - untraced_s
    metrics = {}
    for name, (unit, span) in LAYER_METRICS.items():
        metrics[name] = (own[span] if span else counts[name], unit)
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / ("%s-seed%d-spans.npz" % (args.workload, args.seed)))
    info = {
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "self_s": own,
        "self_sum_s": sum(own.values()),
        "spans": len(tracer.starts),
    }
    return metrics, statuses, reasons, info


def layer_shares(own):
    """Self time per package module (the first part of a span name)."""
    shares = {}
    for span, secs in own.items():
        layer = span.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + secs
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# -- entry points ----------------------------------------------------------------


def environment(wblow, args):
    return {
        "python": platform.python_version(),
        "kernel_backend": wblow.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "case_limit_s": CASE_LIMIT_S,
        "traced_case_limit_s": TRACED_LIMIT_S,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    wblow, inputs, _ = setup(args.workload, args.seed)
    expected = oracles.load_expected()
    env = environment(wblow, args)
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, statuses, reasons, info = traced_run(args, wblow, inputs, expected)
    else:
        metrics, statuses, reasons, info = timed_run(args, wblow, inputs, expected)
    attempted, failed, counts, changed = summarize_statuses(statuses)
    wrong = sorted(reasons)

    for name, (value, unit) in metrics.items():
        print("%-26s %16.6g %s" % (name, value, unit))
    if not args.trace:
        print("passes %d of %d cases, case seconds %.3f"
              % (info["passes"], len(inputs), info["case_seconds"]))
    else:
        total = info["self_sum_s"]
        print("layer self time (s), all spans sum to %.4f, traced pass %.4f:"
              % (total, info["traced_s"]))
        for layer, secs in layer_shares(info["self_s"]).items():
            print("  %-10s %10.4f  %5.1f%%" % (layer, secs, 100.0 * secs / max(total, 1e-12)))
    print("statuses: " + json.dumps(counts, sort_keys=True))
    print("oracle verdict: %s (%d wrong)" % ("pass" if not wrong else "FAIL", len(wrong)))
    for case_id in wrong:
        print("  wrong %s: %s" % (case_id, reasons[case_id]))
    if changed:
        print("status changed between passes: " + ", ".join(changed))

    RESULTS.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "status_counts": counts,
        "statuses": statuses,
        "wrong": reasons,
        "info": info,
    }
    out = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def child_run(args, workload: str, trace: int, seed: int, echo: bool = True) -> dict:
    """Run one workload in a fresh process and return its result line."""
    cmd = [
        sys.executable, __file__, "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if echo:
        sys.stdout.write(out.stdout)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" % (" ".join(cmd), out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    ok = True
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            print("== %s, trace %d" % (workload, trace), flush=True)
            ok &= child_run(args, workload, trace, args.seed)["correct"]
    return 0 if ok else 1


def self_test(args) -> int:
    """Two traced runs of one seed must give identical exact counts."""
    bad = 0
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        first, second = (
            child_run(args, workload, 1, args.seed, echo=False)["metrics"] for _ in range(2)
        )
        for name in EXACT:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            bad += not same
            print("self-test %s %s: %s %s" % (workload, name, a, "==" if same else "!= %s" % b))
    print("self-test: %s" % ("pass" if not bad else "FAIL (%d differ)" % bad))
    return 1 if bad else 0


def record_expected() -> int:
    """Write the root invariants of every case solved at the default seed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    table = {}
    for workload in corpus.WORKLOADS:
        wblow, inputs, _ = setup(workload, DEFAULT_SEED)
        for case, ideal in inputs:
            status, result, _ = run_case(entry(wblow, case.mode), ideal, CASE_LIMIT_S)
            status, reason = judge(case, ideal, status, result, {})
            if status == "ok":
                table[case.key] = oracles.root_invariant(case, result)
            elif status == "wrong":
                print("not recorded, wrong: %s: %s" % (case.id, reason))
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(table.items())]
    with open(oracles.EXPECTED_ROOTS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print("recorded %d root invariants" % len(table))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check exact counts")
    parser.add_argument("--record", action="store_true", help="rewrite expected_roots.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        # -O strips the package's descent and admissibility asserts, which
        # would make this a different program
        print("perfbench: refusing to run under python -O", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup(args.workload, args.seed)[2])
        return 0
    if args.record:
        return record_expected()
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
