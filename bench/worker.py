"""One pass of a workload, in a process of its own.

This is the process that does hlab's work, so its clock and its peak
resident memory are the ones the benchmark reports; bench/run.py starts
it, waits for it and checks what it wrote.  Each pass gets a fresh
process, so every pass starts from the same cold caches.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace]
    python3 bench/worker.py --setup-only

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_report(main, argv, tracer):
    """Exit code of one report; an exception is a failed report."""
    try:
        if tracer is None:
            return main(argv)
        return tracer.call("cli.main", main, (argv,), {})
    except Exception:               # the pass goes on; the parent counts it
        traceback.print_exc()
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hlab.cli
    setup_s = time.perf_counter() - start
    if Path(hlab.__file__).resolve().parent != SRC / "hlab":
        print("bench: imported hlab from %s, not from %s"
              % (hlab.__file__, SRC), file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for report in WORKLOADS[args.workload]:
        path = out / (report.name + ".csv")
        argv = report.argv(args.seed, str(path))
        begin = time.perf_counter()
        code = _run_report(hlab.cli.main, argv, tracer)
        records.append({"name": report.name, "exit": code,
                        "seconds": time.perf_counter() - begin})
    for rec in records:
        path = out / (rec["name"] + ".csv")
        rec["sha256"] = (hashlib.sha256(path.read_bytes()).hexdigest()
                         if path.exists() else None)
    result["reports"] = records
    result["pass_s"] = sum(rec["seconds"] for rec in records)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    if tracer is not None:
        result["spans"] = tracer.raw()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
