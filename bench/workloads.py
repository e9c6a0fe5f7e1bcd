"""The benchmark's workloads: the graph each one generates and its ops.

An op is one ``p_potential.cli.main(argv)`` call.  Ops run in order, in a
work directory that holds the generated graph file, and name their
inputs and outputs by relative paths, so the files an op writes do not
depend on where the work directory lives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

GRAPH_FILE = "graph.json"


@dataclass(frozen=True)
class Op:
    """One CLI call; ``key`` names it in reference.json and in results."""

    key: str
    argv: tuple

    @property
    def kind(self) -> str:
        return self.argv[0]

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def radii(self) -> list:
        return [int(r) for r in self.arg("--R").split(",")]

    @property
    def p(self) -> float:
        return float(self.arg("--p"))

    @property
    def sigma(self) -> float | None:
        return float(self.arg("--sigma")) if "--sigma" in self.argv else None

    @property
    def result_file(self) -> str:
        """The JSON file whose fields the output check reads."""
        if self.kind == "report":
            return self.arg("--out-prefix") + ".json"
        if self.kind == "flow":
            return self.arg("--out-prefix") + ".report.json"
        if self.kind == "green":
            return os.path.splitext(self.arg("--out"))[0] + ".json"
        raise ValueError(f"no output check for subcommand {self.kind!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str          # "lattice" or "tree"
    shape: tuple         # (dimension, half_side) or (branching, depth)
    make_ops: object     # seed -> list of Op, in run order; subcommands
                         # that take --seed get the benchmark's seed

    def build_graph(self, pp):
        """Generate the workload's graph with the given p_potential module."""
        if self.family == "lattice":
            return pp.build_lattice(*self.shape)
        return pp.build_tree(*self.shape)


def _lattice2d_report(seed: int) -> list:
    return [Op("report", ("report", "--graph", GRAPH_FILE, "--p", "3",
                          "--sigma", "4", "--R", "8,16,24",
                          "--seed", str(seed), "--out-prefix", "report"))]


def _tree_flow(seed: int) -> list:
    # build_tree(2, 12) has eccentricity 12, so R_max = 11: every radius
    # the truncation allows.  At the seed commit R = 7 and R = 8 exit 1
    # with a false conservation alarm; they stay in the ladder.
    return [Op(f"flow-R{R}", ("flow", "--graph", GRAPH_FILE, "--R", str(R),
                              "--p", "1.5", "--sigma", "2",
                              "--out-prefix", f"flow-R{R}"))
            for R in range(1, 12)]


def _lattice3d_green(seed: int) -> list:
    return [Op(f"green-p{p}-R{R}", ("green", "--graph", GRAPH_FILE, "--R", R,
                                    "--p", p, "--out", f"green-p{p}-R{R}.csv"))
            for p, R in (("3", "10"), ("3", "14"), ("1.5", "8"), ("1.5", "10"))]


WORKLOADS = {w.name: w for w in (
    Workload("lattice2d-report",
             "full report pipeline on lattice(2,40), path-heavy; the only "
             "workload with the probe, criterion series and verify suites",
             "lattice", (2, 40), _lattice2d_report),
    Workload("tree-flow-p1.5",
             "flow at every radius of tree(2,12), p=1.5: many small Newton "
             "solves and short paths; R=7,8 hit the conservation false alarm",
             "tree", (2, 12), _tree_flow),
    Workload("lattice3d-green",
             "four green solves on lattice(3,16): factorization-bound Newton "
             "and large graph-file loads; never touches flows",
             "lattice", (3, 16), _lattice3d_green),
)}
