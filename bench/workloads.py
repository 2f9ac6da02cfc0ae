"""The benchmark's workloads: the reports one pass runs, in order.

Each report runs through hlab.cli.main with the argv below plus
--out FILE; the seeded ones also get --seed.  Why each workload holds
what it holds is written in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

from typing import NamedTuple


class Report(NamedTuple):
    name: str
    flags: tuple = ()
    seeded: bool = False

    def argv(self, seed: int, out: str) -> list:
        argv = [self.name, *self.flags]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", out]


WORKLOADS = {
    "convolution": (Report("dispersion", ("--fast",)),
                    Report("strichartz-window", ("--fast",))),
    "transform": (Report("kernel-consistency", ("--fast",), seeded=True),
                  Report("concentrate", seeded=True)),
    "closed-forms": (Report("heat-equiv"),
                     Report("mehler", seeded=True),
                     Report("restricted-sweep"),
                     Report("mkappa")),
}
