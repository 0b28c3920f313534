"""Benchmark workloads: generated inputs, quality metrics and correctness gates.

Every input the program sees is generated here from the workload seed: the
JSON run config and, for the BNN workload, the sin-regression CSV.  The
energy-distance reference samples are drawn by the program itself from the
config's root seed.  Nothing is downloaded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Seed of the canary run whose final snapshot is compared with the
# fingerprint recorded in reference.json.
REFERENCE_SEED = 0
# Fixed weights for the projection entry of a fingerprint.
_FINGERPRINT_WEIGHT_SEED = 20211007


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``config`` is the run config minus the seed-dependent fields; ``iters``
    is the length of one repetition, sized to about a second of stepping.
    """

    name: str
    why: str
    config: dict
    quality: str
    quality_unit: str

    @property
    def iters(self) -> int:
        return self.config["run"]["iters"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "crescent_rhmc",
        "dynamics-bound: RHMC evaluates the Riemannian metric 5 times per "
        "field (7 grad_many calls per step) and the contraction takes the "
        "dense (N, D, D) path; replicates criterion 7",
        {"target": "tri_crescent", "method": "gsvgd",
         "dynamics": {"kind": "RHMC", "sigma2": 4.0, "d_scale": 1.5,
                      "c_offset": 0.5},
         "kernel": {"mode": "median"}, "integrator": "euler",
         "run": {"eps": 0.05, "iters": 300, "n_particles": 200},
         "init": {"theta_var": 0.01}, "trace": {"every": 50},
         "diagnostics": {"mode_radius": 1.2}},
        "ksd", "1"),
    Workload(
        "bnn_hmc",
        "score-bound: 30 per-particle backprop calls per step and the "
        "306x306 constant (A, C) rebuilt on every drift and velocity call; "
        "the kernel is negligible at N=10; replicates criterion 8",
        {"target": "bnn", "method": "gsvgd",
         "dynamics": {"kind": "HMC", "sigma2": 1.0, "A": 1.0},
         "kernel": {"mode": "median"}, "integrator": "split",
         "run": {"eps": 0.01, "iters": 100, "n_particles": 10},
         "trace": {"every": 50}, "bnn": {"hidden": 50, "batch": 32}},
        "test_ll", "nats"),
    Workload(
        "gauss_svgd_2k",
        "pairwise-bound: pdist bandwidth and the N^2 contraction dominate, "
        "score and dynamics are under 1%; the only workload with real "
        "diagnostics and I/O and with memory growing as N^2",
        {"target": "gauss", "target_params": {"dim": 4}, "method": "svgd",
         "dynamics": {"kind": "LD"},
         "kernel": {"mode": "median"}, "integrator": "euler",
         "run": {"eps": 0.1, "iters": 10, "n_particles": 2000},
         "init": {"theta_var": 0.25}, "trace": {"every": 10},
         "diagnostics": {"energy_ref": 1000}},
        "energy_dist", "1"),
    Workload(
        "leapfrog_n1",
        "per-call-overhead-bound: validation, Ensemble copies and the "
        "constant-matrix rebuild dominate a one-particle split step; the "
        "only workload where integrator self time is large; criterion 6",
        {"target": "gauss", "target_params": {"dim": 1}, "method": "gsvgd",
         "dynamics": {"kind": "HMC", "sigma2": 1.0, "A": 0.0},
         "kernel": {"mode": "fixed", "h": 1.0}, "integrator": "split",
         "run": {"eps": 0.1, "iters": 3000, "n_particles": 1},
         "init": {"theta_var": 1.0}, "trace": {"every": 3000},
         "diagnostics": {"energy_ref": 0}},
        "energy_err", "1"),
)}


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def sin_regression_csv(seed: int, rows: int = 220) -> str:
    """``y = sin(3x) + 0.1 noise`` on ``x ~ U(-1, 1)``, with a header row."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=rows)
    y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(rows)
    lines = ["x,y"] + [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int, dest: str) -> str:
    """Write the workload's inputs for ``seed`` into ``dest``; return the
    config path.  The same seed always writes the same bytes."""
    os.makedirs(dest, exist_ok=True)
    cfg = json.loads(json.dumps(workload.config))
    cfg["run"]["seed"] = seed
    if cfg["target"] == "bnn":
        data_path = os.path.join(dest, "data.csv")
        with open(data_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sin_regression_csv(seed))
        cfg["data"] = {"path": data_path, "seed": seed}
    path = os.path.join(dest, "config.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Results of one repetition
# ---------------------------------------------------------------------------

def read_snapshot(out_dir: str, iteration: int) -> np.ndarray:
    """Positions stored in ``snapshots/snapshot_<iteration>.csv``."""
    path = os.path.join(out_dir, "snapshots", f"snapshot_{iteration:08d}.csv")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1]


def imq_ksd(X: np.ndarray, score: np.ndarray, c: float = 1.0,
            beta: float = -0.5) -> float:
    """IMQ kernel Stein discrepancy (V-statistic) of the sample ``X``.

    ``k(x, y) = (c^2 + |x - y|^2)^beta`` (Gorham & Mackey 2017) and
    ``score`` holds ``grad log p`` at each row of ``X``.
    """
    d = X.shape[1]
    diff = X[:, None, :] - X[None, :, :]
    r2 = np.sum(diff ** 2, axis=-1)
    u = c * c + r2
    g = 2.0 * beta * u ** (beta - 1.0)          # grad_x k = g * (x - y)
    sx = np.einsum("id,ijd->ij", score, diff)
    sy = np.einsum("jd,ijd->ij", score, diff)
    kp = ((score @ score.T) * u ** beta + g * (sy - sx)
          - 2.0 * beta * d * u ** (beta - 1.0)
          - 4.0 * beta * (beta - 1.0) * u ** (beta - 2.0) * r2)
    return math.sqrt(max(float(np.mean(kp)), 0.0))


def hamiltonian(positions: np.ndarray, sigma2: float) -> float:
    """``theta^2 / 2 + r^2 / (2 sigma2)`` of a one-particle 1-D HMC state."""
    theta, r = positions[0]
    return 0.5 * theta * theta + 0.5 * r * r / sigma2


def leapfrog_reference(start: np.ndarray, eps: float, steps: int,
                       sigma2: float) -> np.ndarray:
    """Scalar leapfrog for ``H = theta^2/2 + r^2/(2 sigma2)``."""
    theta, r = (float(v) for v in start[0])
    for _ in range(steps):
        r_half = r - 0.5 * eps * theta
        theta = theta + eps * r_half / sigma2
        r = r_half - 0.5 * eps * theta
    return np.array([[theta, r]])


def quality(workload: Workload, summary: dict, out_dir: str,
            final: np.ndarray) -> tuple[float, float | None]:
    """``(final value, initial value or None)`` of the quality metric."""
    if workload.quality in ("test_ll", "energy_dist"):
        return (float(summary["final"][workload.quality]),
                float(summary["initial"][workload.quality]))
    if workload.quality == "ksd":
        from gsvgd import targets

        theta = final[:, :2]
        score = targets.tri_crescent_target().grad_many(theta)
        return imq_ksd(theta, score), None
    sigma2 = workload.config["dynamics"]["sigma2"]
    h0 = hamiltonian(read_snapshot(out_dir, 0), sigma2)
    return abs(hamiltonian(final, sigma2) - h0), None


def fingerprint(final: np.ndarray, quality_value: float) -> dict:
    """Scalar projections of the final snapshot, plus the quality metric,
    each with the magnitude scale its tolerance is relative to."""
    w = np.random.default_rng(_FINGERPRINT_WEIGHT_SEED).standard_normal(
        final.shape)
    return {
        "sum": [float(final.sum()), float(np.abs(final).sum())],
        "sum_sq": [float((final * final).sum()), float((final * final).sum())],
        "proj": [float((w * final).sum()), float(np.abs(w * final).sum())],
        "quality": [float(quality_value), abs(float(quality_value))],
    }


def fingerprint_error(fp: dict, ref: dict) -> float:
    """Largest deviation from ``ref`` relative to each entry's scale."""
    worst = 0.0
    for key, (ref_value, scale) in ref.items():
        worst = max(worst, abs(fp[key][0] - ref_value) / max(scale, 1e-300))
    return worst


def gate(workload: Workload, summary: dict, out_dir: str) -> dict:
    """Check one finished repetition; returns its quality metric, the
    initial value where one exists, its fingerprint and the list of failed
    checks (empty when it passes)."""
    final = read_snapshot(out_dir, workload.iters)
    value, initial = quality(workload, summary, out_dir, final)
    problems = []
    if not math.isfinite(value):
        problems.append(f"{workload.quality} is not finite: {value}")
    if initial is not None:
        improved = value > initial if workload.quality == "test_ll" \
            else value < initial
        if not improved:
            problems.append(f"{workload.quality} {value!r} does not improve "
                            f"on its initial value {initial!r}")
    if workload.name == "leapfrog_n1":
        eps = workload.config["run"]["eps"]
        sigma2 = workload.config["dynamics"]["sigma2"]
        start = read_snapshot(out_dir, 0)
        expect = leapfrog_reference(start, eps, workload.iters, sigma2)
        err = float(np.max(np.abs(final - expect) / np.maximum(1.0, np.abs(expect))))
        if err > 1e-12:
            problems.append(f"final state differs from scalar leapfrog by {err:.3g}")
        bound = eps * eps * hamiltonian(start, sigma2)
        if value > bound:
            problems.append(f"energy error {value:.3g} exceeds eps^2 H0 = {bound:.3g}")
    return {"quality": value, "initial": initial, "problems": problems,
            "fingerprint": fingerprint(final, value)}
