"""The three benchmark workloads: CLI argument lists, sizes and output checks.

Each workload repeats one ``gridloss`` CLI command. Every op gets its own
seed, derived from the workload seed, so no two ops share a graph or a noise
path and no input cache can fake a gain. The checks recompute what they
need with numpy and the formulas below, not with the norm routes under test.

Each class sets ``ops_per_second``, the length of the timed list per second
of ``--seconds``. The op count depends on ``--seconds`` alone, so a faster
program runs the same ops in less wall time. On a 2-core Xeon with one BLAS
thread the list lasts about ``--seconds`` for analyze and trajectory, and
about twice that for design, whose op time varies most with load from other
tenants of a shared machine. ``warmup()`` gives the tiny instance that
set-up runs once, untimed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

# Controller and network defaults of the CLI, used by every workload.
ALPHA = 1.0
M = 1.0
TAU = 1.0
K = 1.0
GAMMA = 1.0
B_LINE = 1.0
B_RANGE = (0.5, 1.5)

# design: k values whose gamma_star the check verifies, and the share of ops
# (seed divisible by this) on which it rebuilds the spectrum to do so.
DESIGN_SAMPLES = 5
DESIGN_SPECTRUM_EVERY = 3

# trajectory: the integration step, and the check of the mean loss. Over 300
# seeds of the full-size op the mean loss after SIM_WARM_UP_S was within
# -14%..+18% of the closed form (sd 5.8%), so SIM_LOSS_RTOL is about five
# standard deviations. Shorter runs spread too much for that tolerance and
# skip the comparison.
SIM_DT = 0.005
SIM_WARM_UP_S = 5.0
SIM_MIN_WINDOW_S = 40.0
SIM_LOSS_RTOL = 0.3


def op_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-op CLI seeds; the same (workload, seed) always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def dapi_closed_form(lams: np.ndarray, k: float, gamma: float) -> float:
    """DAPI squared norm alpha/(2m) * sum 1/(1+u) over the nonzero eigenvalues,
    u = (gamma tau lam + k) / (gamma lam (gamma tau lam + k) + k^2 m lam)."""
    s = gamma * TAU * lams + k
    u = s / (gamma * lams * s + k * k * M * lams)
    return ALPHA / (2.0 * M) * float(np.sum(1.0 / (1.0 + u)))


def laplacian(n_nodes: int, edges) -> np.ndarray:
    """Susceptance Laplacian of a graph given as (i, j, b) edges."""
    lb = np.zeros((n_nodes, n_nodes))
    for i, j, b in edges:
        lb[i, j] -= b
        lb[j, i] -= b
    np.fill_diagonal(lb, -lb.sum(axis=1))
    return lb


@dataclass(frozen=True)
class Analyze:
    """``analyze`` on a random graph: all three norm routes; the cubic
    full-Gramian route dominates."""

    n: int = 150
    p: float = 0.05
    name: ClassVar[str] = "analyze"
    suffix: ClassVar[str] = ".json"
    rerun: ClassVar[bool] = False
    ops_per_second: ClassVar[float] = 1.4

    def warmup(self) -> Analyze:
        return Analyze(n=8, p=0.5)

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["analyze", "--random", f"{self.n},{self.p}", "--seed", str(seed),
                "--format", "json", "--out", str(out)]

    def check(self, argv: list[str], out: Path) -> str | None:
        report = json.loads(out.read_text())
        for kind in ("droop", "dapi"):
            norms = list(report[kind].values())
            if len(norms) != 3:
                return f"{kind}: expected 3 routes, got {len(norms)}"
            spread = (max(norms) - min(norms)) / max(norms)
            if not spread <= 1e-7:
                return f"{kind}: routes disagree by {spread:.3e} relative"
        droop = ALPHA * (self.n - 1) / (2.0 * M)
        if not abs(report["droop"]["closed_form"] - droop) <= 1e-12 * droop:
            return f"droop closed form {report['droop']['closed_form']!r} != {droop!r}"
        if not max(report["dapi"].values()) < min(report["droop"].values()):
            return "dapi is not below droop"
        return None


@dataclass(frozen=True)
class Design:
    """``sweep --param k --at-optimal-gamma`` on a large random graph: gain
    tuning and the large-N spectrum, with no Gramian and no simulation."""

    n: int = 1000
    p: float = 0.01
    grid: str = "0.2:10:0.2"
    name: ClassVar[str] = "design"
    suffix: ClassVar[str] = ".json"
    rerun: ClassVar[bool] = False
    ops_per_second: ClassVar[float] = 1.5

    def warmup(self) -> Design:
        return Design(n=8, p=0.5, grid="1:2:1")

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["sweep", "--random", f"{self.n},{self.p}", "--seed", str(seed), "--param", "k",
                "--grid", self.grid, "--at-optimal-gamma", "--format", "json", "--out", str(out)]

    def check(self, argv: list[str], out: Path) -> str | None:
        # imported here: gridloss is on the path only once worker.load_cli ran
        from gridloss import build_random_connected_graph

        report = json.loads(out.read_text())
        ks, reductions, gains = report["grid"], report["loss_reduction"], report["gamma_star"]
        start, stop, step = (float(v) for v in self.grid.split(":"))
        expected = int(math.floor((stop - start) / step + 0.5)) + 1
        if not len(ks) == len(reductions) == len(gains) == expected:
            return f"expected {expected} grid points, got {len(ks)}/{len(reductions)}/{len(gains)}"
        if not all(0.0 <= r < 1.0 for r in reductions):
            return f"loss_reduction outside [0, 1): {min(reductions)!r}..{max(reductions)!r}"
        if not all(g >= 0.0 and math.isfinite(g) for g in gains):
            return f"gamma_star not finite and >= 0: {min(gains)!r}..{max(gains)!r}"
        seed = int(argv[argv.index("--seed") + 1])
        if seed % DESIGN_SPECTRUM_EVERY:
            return None
        # about one op in DESIGN_SPECTRUM_EVERY: rebuilding the graph and its
        # spectrum costs a third of an op
        graph = build_random_connected_graph(self.n, self.p, B_RANGE, ALPHA, seed=seed)
        lams = np.linalg.eigvalsh(laplacian(graph.n_nodes, graph.edges))[1:]
        droop = ALPHA * (self.n - 1) / (2.0 * M)
        picks = np.linspace(0, len(ks) - 1, DESIGN_SAMPLES).round().astype(int)
        for idx in sorted(set(picks.tolist())):
            k, g = ks[idx], gains[idx]
            at_star = dapi_closed_form(lams, k, g)
            if not abs(1.0 - at_star / droop - reductions[idx]) <= 1e-9:
                return f"k={k}: loss_reduction {reductions[idx]!r} != 1 - {at_star!r}/{droop!r}"
            for nearby in (g * (1.0 - 1e-3), g * (1.0 + 1e-3)):
                if at_star > dapi_closed_form(lams, k, nearby) + 1e-12 * at_star:
                    return f"k={k}: norm at gamma_star={g!r} exceeds norm at {nearby!r}"
        return None


@dataclass(frozen=True)
class Trajectory:
    """``simulate`` with the full-state CSV: the Euler-Maruyama loop, the
    empirical estimator and the trajectory export, the whole ``sim`` layer."""

    n: int = 20
    horizon: float = 50.0
    name: ClassVar[str] = "trajectory"
    suffix: ClassVar[str] = ".csv"
    rerun: ClassVar[bool] = True
    ops_per_second: ClassVar[float] = 1.5

    def warmup(self) -> Trajectory:
        return Trajectory(n=3, horizon=1.0)

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["simulate", "--line", str(self.n), "--dt", str(SIM_DT), "--horizon", str(self.horizon),
                "--seed", str(seed), "--out", str(out)]

    def check(self, argv: list[str], out: Path) -> str | None:
        steps = int(round(self.horizon / SIM_DT))
        columns = 2 + 3 * self.n
        with out.open(encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
        if len(header) != columns:
            return f"header has {len(header)} columns, expected {columns}"
        try:
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            return f"CSV rows do not parse: {exc}"
        if data.shape != (steps + 1, columns):
            return f"expected {steps + 1} rows of {columns} columns, got {data.shape}"
        if not np.all(np.isfinite(data)):
            return "CSV holds a value that is not finite"
        times, loss, theta = data[:, 0], data[:, 1], data[:, 2:2 + self.n]
        if not np.allclose(times, np.arange(steps + 1) * SIM_DT, rtol=1e-9, atol=1e-12):
            return f"times are not 0, dt, ..., {self.horizon} with dt {SIM_DT}"
        # the loss column must be theta' L_G theta of the line graph, and the
        # simulator keeps the phases at zero mean
        l_b = laplacian(self.n, [(i, i + 1, B_LINE) for i in range(self.n - 1)])
        l_g = ALPHA * l_b
        recomputed = np.einsum("ij,jk,ik->i", theta, l_g, theta)
        if not np.allclose(loss, recomputed, rtol=1e-8, atol=1e-12 * float(np.max(loss, initial=0.0))):
            row = int(np.argmax(np.abs(loss - recomputed)))
            return f"row {row + 1}: loss {loss[row]!r} != theta' L_G theta {recomputed[row]!r}"
        drift = float(np.max(np.abs(theta.mean(axis=1))))
        if not drift <= 1e-9 * float(np.max(np.abs(theta))):
            return f"phases drift from zero mean by up to {drift!r}"
        if self.horizon - SIM_WARM_UP_S < SIM_MIN_WINDOW_S:
            return None
        expected = dapi_closed_form(np.linalg.eigvalsh(l_b)[1:], K, GAMMA)
        mean = float(np.mean(loss[times >= SIM_WARM_UP_S - SIM_DT / 2]))
        if not abs(mean / expected - 1.0) <= SIM_LOSS_RTOL:
            return (f"mean loss after t={SIM_WARM_UP_S} is {mean!r}, "
                    f"more than {SIM_LOSS_RTOL:.0%} from the closed form {expected!r}")
        return None


WORKLOADS = {w.name: w for w in (Analyze(), Design(), Trajectory())}
