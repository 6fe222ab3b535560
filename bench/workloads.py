"""The four workloads: their constants, their inputs and their scenes.

Inputs are generated from ``--seed`` alone (numpy only, nothing from
the program under test); `build_*` then hands the program exactly those
inputs. Run lengths are constants of this file and the same on every
commit. See README.md for why each workload exists.
"""
from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

#: fresh-process rounds per run; round r repeats bit-identical work.
ROUNDS = 5
#: nominal wall seconds one workload's rounds take on the reference
#: host; the step counts below were sized for it and `--seconds`
#: scales them proportionally.
RUN_SECONDS = 30
#: largest per-axis displacement `--seed` applies to a cell centre.
#: Small on purpose: the reference spacing 2.4 sits at the edge of the
#: near zone, and at 0.05 the near-singular work (and with it the step)
#: moved by +-7 % from seed to seed — input variation, not host noise.
JITTER = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: steps after the cold one that are run but not timed.
    warm: int
    #: timed samples per round (steps; for the sweep, jobs).
    timed: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "freespace6_direct",
        "6 RBCs order 8, direct backend: the per-cell dense layers "
        "(circulant assembly, tension Schur, SLP apply, stacked LU, NCP) "
        "do the work; FMM and BIE are idle",
        warm=1, timed=10),
    Workload(
        "vessel_capsule2",
        "2 RBCs in a capsule vessel: the only workload where the paper's "
        "dominant BIE solve and BIE evaluate (closest-point Newton per "
        "cell point) are nonzero; per-cell layers are a few percent",
        warm=0, timed=10),
    Workload(
        "lattice64_fmm",
        "64 RBCs order 4, fmm backend: GlobalKIFMM build and evaluate is "
        "the largest layer and per-cell layers run as 64-deep stacks "
        "instead of 6-deep",
        warm=0, timed=10),
    Workload(
        "sweep_mixed24",
        "24 small SceneJobs of orders 4/6/8 through SweepRunner: cold "
        "tables for three orders, amortized self-op refresh, checkpoint "
        "and result writes; where bigger precomputed tables cost",
        warm=0, timed=24),
)}

#: the one workload whose sample is a job, not a step.
SWEEP = "sweep_mixed24"
#: steps each sweep job runs (refresh interval 4, checkpoint every 2).
SWEEP_STEPS = 6
SWEEP_ORDERS = (4, 6, 8)

#: capsule vessel semi-axes (x = y, z): ``capsule_tube(length=10,
#: radius=1.6)`` is a sphere stretched along z.
VESSEL_RADIUS = 1.6
VESSEL_LENGTH = 10.0


def scaled_steps(name: str, seconds: float) -> int:
    """Timed steps per round for a run of ``seconds`` (never below 10:
    a median of fewer samples is not worth printing). The sweep's
    sample is a job and its job list is fixed."""
    w = WORKLOADS[name]
    if name == SWEEP:
        return w.timed
    return max(10, round(w.timed * seconds / RUN_SECONDS))


# -- inputs ----------------------------------------------------------------

def _nominal_centres(name: str) -> np.ndarray:
    if name == "freespace6_direct":
        return np.array([(2.4 * (k // 2), 2.4 * (k % 2), 0.15 * (-1.0) ** k)
                         for k in range(6)])
    if name == "vessel_capsule2":
        return np.array([(0.0, 0.0, -2.4), (0.0, 0.0, 2.4)])
    if name == "lattice64_fmm":
        return np.array([(3.0 * i, 3.0 * j, 3.0 * k
                          + 0.05 * (-1.0) ** (16 * i + 4 * j + k))
                         for i in range(4) for j in range(4)
                         for k in range(4)])
    raise KeyError(name)


def make_inputs(name: str, seed: int) -> dict:
    """Everything the scene is built from, as plain arrays."""
    rng = np.random.default_rng([int(seed), sorted(WORKLOADS).index(name)])
    if name == SWEEP:
        jobs = []
        for i in range(WORKLOADS[name].timed):
            ncell = 1 + i % 2
            centres = np.array([(2.4 * c, 0.0, 0.0) for c in range(ncell)])
            jobs.append({
                "order": SWEEP_ORDERS[i % 3],
                "centres": centres + rng.uniform(-JITTER, JITTER,
                                                 centres.shape),
                "bending": 0.02 + 0.01 * float(rng.uniform()),
            })
        return {"jobs": jobs}
    centres = _nominal_centres(name)
    return {"centres": centres + rng.uniform(-JITTER, JITTER, centres.shape)}


# -- scenes (the program under test is imported only here) ------------------

def build_simulation(name: str, inputs: dict):
    from repro.config import NumericsOptions, ReproConfig
    from repro.core.simulation import Simulation
    from repro.physics.terms import Bending, Gravity, Tension
    from repro.surfaces import biconcave_rbc

    centres = [tuple(c) for c in inputs["centres"]]
    gravity = Gravity(0.5, (0.0, 0.0, -1.0))
    if name == "freespace6_direct":
        cells = [biconcave_rbc(1.0, center=c, order=8) for c in centres]
        cfg = ReproConfig(
            dt=0.05, viscosity=1.0,
            forces=[Bending(0.01), Tension(), gravity],
            backend="direct", with_collisions=True,
            numerics=NumericsOptions(executor="serial", workers=1))
        return Simulation(cells, config=cfg)
    if name == "lattice64_fmm":
        cells = [biconcave_rbc(1.0, center=c, order=4) for c in centres]
        cfg = ReproConfig(
            dt=0.05, viscosity=1.0,
            forces=[Bending(0.01), Tension(), gravity],
            backend="fmm", with_collisions=True,
            numerics=NumericsOptions(executor="serial", workers=1))
        return Simulation(cells, config=cfg)
    if name == "vessel_capsule2":
        from repro.patches import capsule_tube
        from repro.vessel import capsule_inlet_outlet_bc
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                               check_r_factor=0.25, gmres_max_iter=20,
                               executor="serial", workers=1)
        vessel = capsule_tube(length=VESSEL_LENGTH, radius=VESSEL_RADIUS,
                              refine=0, options=opts)
        bc = capsule_inlet_outlet_bc(vessel, axis=2, flux=2.0)
        cells = [biconcave_rbc(0.9, center=c, order=3) for c in centres]
        cfg = ReproConfig(
            dt=0.05, viscosity=1.0, forces=[Bending(0.02), Tension()],
            backend="direct", with_collisions=True, numerics=opts)
        return Simulation(cells, vessel=vessel, boundary_bc=bc, config=cfg)
    raise KeyError(name)


def build_sweep_jobs(inputs: dict) -> list:
    from repro.config import NumericsOptions, ReproConfig
    from repro.physics.terms import Bending, Gravity, Tension
    from repro.surfaces import biconcave_rbc
    from repro.sweep import SceneJob

    jobs = []
    for i, spec in enumerate(inputs["jobs"]):
        cfg = ReproConfig(
            dt=0.05, viscosity=1.0,
            forces=[Bending(spec["bending"]), Tension(),
                    Gravity(0.5, (0.0, 0.0, -1.0))],
            backend="direct", with_collisions=True,
            numerics=NumericsOptions(selfop_refresh_interval=4,
                                     executor="serial", workers=1))
        cells = [biconcave_rbc(1.0, center=tuple(c), order=spec["order"])
                 for c in spec["centres"]]
        jobs.append(SceneJob.from_cells(f"job{i:02d}", cfg, cells,
                                        n_steps=SWEEP_STEPS))
    return jobs


def job_dof(job) -> int:
    """Unknowns per step of a sweep job: positions + tension per point
    (what ``Simulation.n_dof()`` reports for a free-space scene)."""
    return sum(4 * np.asarray(X).reshape(-1, 3).shape[0]
               for X in job.positions)


# -- result summaries and checks -------------------------------------------

def cell_summary(cells) -> dict:
    """What the reference files pin and the drift checks compare."""
    return {"centroids": [[float(x) for x in c.centroid()] for c in cells],
            "areas": [float(c.area()) for c in cells],
            "volumes": [float(c.volume()) for c in cells]}


def totals(summary: dict) -> dict:
    """The part of a summary the reference files keep."""
    return {"centroids": summary["centroids"],
            "area": sum(summary["areas"]),
            "volume": sum(summary["volumes"])}


def max_drift(before: dict, after: dict) -> float:
    """Worst per-cell relative area or volume change over a run."""
    worst = 0.0
    for key in ("areas", "volumes"):
        for a, b in zip(before[key], after[key]):
            worst = max(worst, abs(b - a) / abs(a))
    return worst


def outside_lumen(points: np.ndarray) -> int:
    """Cell points outside the capsule vessel's lumen."""
    p = np.asarray(points, float).reshape(-1, 3)
    q = ((p[:, 0] / VESSEL_RADIUS) ** 2 + (p[:, 1] / VESSEL_RADIUS) ** 2
         + (p[:, 2] / (0.5 * VESSEL_LENGTH)) ** 2)
    return int(np.count_nonzero(q >= 1.0))


def centroid_error(summary: dict, reference: dict) -> float:
    a = np.asarray(summary["centroids"], float)
    b = np.asarray(reference["centroids"], float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a - b).max())


def positions_digest(position_arrays: List[np.ndarray]) -> str:
    import hashlib
    h = hashlib.sha256()
    for X in position_arrays:
        h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    return h.hexdigest()
