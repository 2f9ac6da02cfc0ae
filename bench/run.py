"""hlab's benchmark: run one workload for a while, check every report,
print the metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's reports (bench/workloads.py) one after
another in a fresh worker process (bench/worker.py), the only process
that does hlab's work.  New passes start until S seconds have gone by,
and the last one runs to its end.  With --trace 1 untraced and traced
passes alternate and the per-layer metrics come from the traced ones.
Every report CSV is checked by bench/checks.py.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
TIME_LIMIT = 170.0          # the whole run, processes included

sys.path.insert(0, str(BENCH))
from checks import check_kernel_batch, check_report  # noqa: E402
from spans import layer_metric  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The run cannot produce a result."""


def _worker(args, deadline) -> dict:
    """Start the worker, wait for it, return its JSON result."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s killed after %.0f s"
                         % (" ".join(args), timeout)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited %d:\n%s"
                         % (" ".join(args), proc.returncode,
                            proc.stderr[-2000:]))
    return json.loads(lines[-1])


def _run_passes(workload, seed, seconds, trace, run_dir, deadline):
    """Start passes until `seconds` have gone by; the last one runs to
    its end.  A traced run has at least one untraced and one traced
    pass."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < 1 + trace
           or time.perf_counter() - start < seconds):
        traced = trace and len(passes) % 2 == 1
        out = run_dir / ("pass%02d" % len(passes))
        args = ["--workload", workload, "--seed", str(seed),
                "--out", str(out)] + (["--trace"] if traced else [])
        rec = _worker(args, deadline)
        rec.update(traced=traced, out=str(out))
        passes.append(rec)
    return passes


def _check_passes(passes, seed):
    """Count attempted and failed reports; collect benchmark check
    failures.  A report fails when it exits non-zero or fails a check."""
    attempted = failed = 0
    problems = []
    hashes = {}
    for i, rec in enumerate(passes):
        kind = "traced" if rec["traced"] else "untraced"
        print("pass %d (%s): set-up %.4f s" % (i + 1, kind, rec["setup_s"]))
        for rep in rec["reports"]:
            path = Path(rec["out"]) / (rep["name"] + ".csv")
            if path.exists():
                bad = check_report(rep["name"], path.read_text(), seed)
            else:                   # a report that raised wrote nothing
                bad = [] if rep["exit"] != 0 else ["exit 0, no report"]
            attempted += 1
            failed += rep["exit"] != 0 or bool(bad)
            problems += ["pass %d %s: %s" % (i + 1, rep["name"], msg)
                         for msg in bad]
            hashes.setdefault(rep["name"], set()).add(rep["sha256"])
            print("  %-20s %9.4f s  exit %-4s checks %-4s sha256 %s"
                  % (rep["name"], rep["seconds"], rep["exit"],
                     "FAIL" if bad else "ok", rep["sha256"]))
    for name, seen in hashes.items():
        if len(seen) != 1:
            problems.append("%s: passes wrote %d different reports"
                            % (name, len(seen)))
    return attempted, failed, problems


def _end_to_end(passes, probes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    return {
        "setup_s": median(probes + [p["setup_s"] for p in plain]),
        "pass_s": median(p["pass_s"] for p in plain),
        "peak_rss_mib": max(p["peak_rss_mib"] for p in plain),
        "report.first_s": median(p["reports"][0]["seconds"]
                                 for p in plain),
    }


def _per_layer(passes, names) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: median(layer_metric(name, p["spans"]) for p in traced)
           for name in names if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (median(p["pass_s"] for p in traced)
                               - median(p["pass_s"] for p in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT

    if not (ROOT / "src" / "hlab" / "__init__.py").is_file():
        print("bench: no hlab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = OUT / args.workload / ("seed%d-trace%d"
                                     % (args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    try:
        probes = [_worker(["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = _run_passes(args.workload, args.seed, args.seconds,
                             bool(args.trace), run_dir, deadline)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, problems = _check_passes(passes, args.seed)
    if args.workload == "convolution":
        sys.path.insert(0, str(ROOT / "src"))
        from hlab.kernels import schrodinger_batch
        problems += check_kernel_batch(schrodinger_batch, args.seed)

    plain = [p for p in passes if not p["traced"]]
    for rep in WORKLOADS[args.workload]:
        times = [r["seconds"] for p in plain for r in p["reports"]
                 if r["name"] == rep.name]
        print("report.%s_s median %.4f over %d passes"
              % (rep.name, median(times), len(times)))
    for msg in problems:
        print("check failed: " + msg)

    if args.trace:
        declared = spec["per_layer"]
        values = _per_layer(passes, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values = _end_to_end(passes, probes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    (run_dir / "timings.json").write_text(json.dumps(
        {"probes_setup_s": probes, "passes": passes, "metrics": metrics},
        indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
