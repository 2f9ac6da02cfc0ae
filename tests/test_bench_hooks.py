"""The benchmark's per-layer spans name functions that exist in hlab.

bench/spans.py wraps hlab functions by module path and attribute name;
a rename or deletion inside hlab, or a changed signature that a span's
counter reads, would otherwise surface only when the benchmark runs."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import hlab

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TRACED and spans.TRACED_METHODS
    for name, module, attr, _ in spans.TRACED:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), name
    for name, module, cls, method in spans.TRACED_METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), name


_TRACED_RUN_SCRIPT = """
import contextlib, io, json, sys
import hlab.cli
from spans import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = hlab.cli.main(["dispersion", "--fast"])
print(json.dumps({"exit": code, "counts": tracer.raw()["counts"]}))
"""


def test_traced_report_runs_and_counts():
    # the counters read each traced call's arguments, so a signature
    # change inside hlab breaks a traced run even where the names resolve
    src = pathlib.Path(hlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(BENCH)] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN_SCRIPT],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["counts"]["solutions.evolve_by_convolution.pairs"] > 0


_TRACED_COUNTS_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
import hlab.cli
import hlab.kernels
grids = []
closed = hlab.kernels.series_term_closed
def spy(d, z, rho, s, ell):
    grids.append([np.shape(rho), np.shape(ell)])
    return closed(d, z, rho, s, ell)
hlab.kernels.series_term_closed = spy
from spans import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = hlab.cli.main(sys.argv[1:])
raw = tracer.raw()
print(json.dumps({"exit": code, "counts": raw["counts"],
                  "calls": raw["calls"], "grids": grids}))
"""


def _traced_counts(argv) -> dict:
    src = pathlib.Path(hlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(BENCH)] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", _TRACED_COUNTS_SCRIPT,
                           *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    return result


def test_batched_closed_forms_still_count_their_work():
    # the series passes each batch's levels as a (queries, levels) grid,
    # so the terms counter, np.size(ell), counts every query's terms
    series = _traced_counts(["heat-equiv", "--fast"])
    grids = series["grids"]
    assert grids and all(len(ell) == 2 and rho == [ell[0], 1]
                         for rho, ell in grids)
    assert max(ell[0] for _, ell in grids) == 9     # one 3 x 3 grid per t
    assert series["counts"]["kernels.series_term_closed.terms"] == sum(
        ell[0] * ell[1] for _, ell in grids)
    # mehler takes one Hermite table per identity
    hermite = _traced_counts(["mehler"])
    assert hermite["calls"]["backend.hermite_table"] == 2
