"""The layered benchmark's driver. README.md has the protocol.

    python bench/run.py [--seed S] [--rounds R]      full set: 4 workloads
                                                     interleaved, traced run,
                                                     probes -> bench/out/
    python bench/run.py --workload W --seed S --seconds T --trace 0|1
                                                     one workload, one JSON
                                                     result line (BENCHMARK.json)
    python bench/run.py --compare A.json B.json      two full sets, by bound
    python bench/run.py --selfcheck                  two full sets back to back
    python bench/run.py --write-reference            re-pin bench/reference/

Every measurement is a fresh `child.py` process with one BLAS thread.
End-to-end metrics come from untraced children only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats
import workloads as wl
from child import REQUIRED_ENV
from trace import COUNTER_METRICS, SPAN_METRICS, TRACE_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

#: end-to-end metric -> (unit, better, bound); all four on every workload.
#: Set-up is one cold pass through imports, table builds and a dense BIE
#: assembly: on this host min-of-5 still moves by 8 % between two sets
#: of ten runs (IQR 17 %), so it gets the widest bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.20),
    "step_ms_p50": ("ms", "lower", 0.10),
    "dof_steps_per_s": ("dof.steps/s", "higher", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.05),
}
#: untraced rounds a `--trace 1` run takes beside the traced child, to
#: price the tracing and show the host's state.
TRACE_ROUNDS = 2
#: the seed-0 references pin centroids to this (trajectories are
#: bit-identical across processes; the slack is for other BLAS builds).
CENTROID_TOL = 1e-8
#: per-cell relative area/volume change allowed per step taken (1e-2
#: over four steps): the order-3 and order-4 cells lose ~1.5e-3 of
#: their volume per step by discretization alone, a blow-up far more.
DRIFT_TOL_PER_STEP = 2.5e-3
CHILD_TIMEOUT = 170

PROBE_METRICS = (
    "host.gemm_gflops", "host.stream_gbs", "host.pyloop_ms",
    "kernels.slp_probe_ms.f64", "kernels.slp_probe_ms.f32",
    "kernels.slp_probe_peak_frac",
    "vesicle.assemble_per_cell_ms.p8k1", "vesicle.assemble_per_cell_ms.p8k6",
    "vesicle.assemble_per_cell_ms.p8k32",
    "vesicle.assemble_per_cell_ms.p4k64",
    "linalg.lu_factor_probe_ms.p8k6", "linalg.lu_solve_probe_ms.p8k6",
    "sph.forward_probe_us.p8", "sph.inverse_probe_us.p8",
    "resilience.checkpoint_roundtrip_ms",
    "resilience.checkpoint_roundtrip_bytes",
    "runtime.process_dispatch_ms",
)
DRIVER_METRICS = ("sweep.run_overhead_frac", "trace.overhead_frac",
                  "noise.round_spread_frac")


def per_layer_names() -> list:
    """Every per-layer metric a `--trace 1` run prints, in print order
    (BENCHMARK.json lists the same names; test_stats.py pins that)."""
    return (list(SPAN_METRICS) + list(COUNTER_METRICS) + list(TRACE_METRICS)
            + list(DRIVER_METRICS) + list(PROBE_METRICS))


def layer_spec(name: str) -> tuple:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("gflops"):
        return "GFLOP/s", "higher"
    if name.endswith("_gbs"):
        return "GB/s", "higher"
    if name in ("trace.coverage_frac", "kernels.slp_probe_peak_frac"):
        return "frac", "higher"
    if name.endswith("_frac"):
        return "frac", "lower"
    if "_us" in name:
        return "us", "lower"
    if "_ms" in name:
        return "ms", "lower"
    if name.endswith("bytes"):
        return "bytes", "lower"
    return "count", "lower"


# -- launching ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(REQUIRED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["BENCH_LAUNCH_TIME"] = repr(time.time())
    return env


def launch(script: str, *argv: str) -> dict:
    """Run one bench script as a fresh pinned process; its last stdout
    line is the JSON it measured."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *argv],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{script} {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def launch_child(name: str, seed: int, timed: int, *flags: str) -> dict:
    return launch("child.py", name, "--seed", str(seed),
                  "--timed", str(timed), *flags)


def warm_page_cache() -> None:
    """One discarded launch so the first measured child does not pay
    for reading the interpreter and numpy/scipy/repro off disk."""
    subprocess.run([sys.executable, "-c", "import repro, repro.sweep"],
                   env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def measure(names: list, seed: int, rounds: int, seconds: float,
            extra_setups: bool) -> dict:
    """``rounds`` interleaved rounds of untraced children: a round runs
    each workload once in fixed order, so one workload's rounds are as
    far apart as the other workloads make them. ``extra_setups`` adds a
    `--setup-only` launch per workload after each round."""
    samples = {n: {"rounds": [], "setups": []} for n in names}
    for _ in range(rounds):
        for n in names:
            out = launch_child(n, seed, wl.scaled_steps(n, seconds))
            samples[n]["rounds"].append(out)
            samples[n]["setups"].append(out["setup_s"])
        if extra_setups:
            for n in names:
                out = launch_child(n, seed, 0, "--setup-only")
                samples[n]["setups"].append(out["setup_s"])
    return samples


# -- reduction ---------------------------------------------------------------

def load_reference(name: str, seed: int, timed: int):
    """The pinned seed-0 result, when this run repeats its step count."""
    if seed != 0 or timed != wl.WORKLOADS[name].timed:
        return None
    with open(os.path.join(REFERENCE, f"{name}.seed0.json")) as fh:
        return json.load(fh)


def reduce_workload(name: str, sample: dict, reference) -> dict:
    """End-to-end metrics, raw per-round figures and result checks of
    one workload from its rounds."""
    rounds = sample["rounds"]
    series = stats.aligned_min([r["step_s"] for r in rounds])
    p50, count = stats.median_n(series)
    if name == wl.SWEEP:
        # The run wall with the same filter applied part by part: each
        # job from its quietest round, plus the quietest round's time
        # outside the jobs (manifest and result files).
        wall = (sum(t * n for t, n in zip(series, rounds[0]["job_steps"]))
                + min(r["run_wall_s"] - r["job_elapsed_s"] for r in rounds))
        rate = rounds[0]["dof_steps"] / wall
    else:
        rate = stats.throughput(rounds[0]["n_dof"], series)
    metrics = {
        "setup_s": min(sample["setups"]),
        "step_ms_p50": 1e3 * p50,
        "dof_steps_per_s": rate,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds)
        / 1024.0,
    }
    round_p50 = [1e3 * statistics.median(r["step_s"]) for r in rounds]

    problems = []
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds printed different digests")
    last = rounds[-1]
    drift_tol = DRIFT_TOL_PER_STEP * last["cell_steps"]
    if not last["drift"] <= drift_tol:
        problems.append(f"area/volume drift {last['drift']:.3g} over "
                        f"{last['cell_steps']} steps > {drift_tol:.3g}")
    if last["outside_lumen"]:
        problems.append(f"{last['outside_lumen']} cell points outside the "
                        "lumen")
    if reference is not None:
        if last["summary"] is None:
            problems.append("no final state to compare with the reference")
        else:
            err = wl.centroid_error(last["summary"], reference)
            if not err <= CENTROID_TOL:
                problems.append(f"seed-0 centroids off the reference by "
                                f"{err:.3g} > {CENTROID_TOL}")
    ops = sum(len(r["health"]) for r in rounds)
    failed = sum(1 for r in rounds for h in r["health"]
                 if h.get("retries") or not h["accepted"]
                 or h.get("degraded"))
    return {
        "metrics": metrics,
        "samples": count,
        "ops": ops,
        "failed_ops": failed + len(problems),
        "problems": problems,
        "n_dof": rounds[0]["n_dof"],
        "digest": last["digest"],
        "round_p50_ms": round_p50,
        "round_spread_frac": stats.spread_frac(round_p50),
        "setup_samples_s": sample["setups"],
        "run_overhead_frac": (statistics.median(
            1.0 - r["job_elapsed_s"] / r["run_wall_s"] for r in rounds)
            if name == wl.SWEEP else 0.0),
        "env": last["env"],
        "versions": last["versions"],
    }


def traced_layers(name: str, seed: int, seconds: float, untraced: dict,
                  probes: dict) -> dict:
    """Per-layer metrics of one workload: a traced child, the figures
    only the driver can form, and the probes."""
    timed = wl.scaled_steps(name, seconds)
    out = launch_child(name, seed, timed, "--trace")
    layers = dict(out["layers"])
    traced_p50 = 1e3 * statistics.median(out["step_s"])
    layers["trace.overhead_frac"] = (
        traced_p50 / untraced["metrics"]["step_ms_p50"] - 1.0)
    layers["noise.round_spread_frac"] = untraced["round_spread_frac"]
    layers["sweep.run_overhead_frac"] = untraced["run_overhead_frac"]
    layers.update(probes)
    return {k: layers[k] for k in per_layer_names()}


# -- host fingerprint ----------------------------------------------------------

def _steal_jiffies() -> tuple:
    """(steal, total) jiffies so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Fingerprint:
    """Host state a disputed number can be read against; `finish` adds
    what only the end of the run knows."""

    def __init__(self, seed: int, rounds: int, seconds: float, names: list):
        self.steal0 = _steal_jiffies()
        self.data = {
            "git_revision": _git_revision(),
            "seed": seed, "rounds": rounds, "seconds": seconds,
            "timed_steps": {n: wl.scaled_steps(n, seconds) for n in names},
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
        }

    def finish(self, reduced: dict) -> dict:
        steal1, total1 = _steal_jiffies()
        steal0, total0 = self.steal0
        any_wl = next(iter(reduced.values()))
        self.data.update({
            "loadavg_end": os.getloadavg(),
            "steal_jiffies": steal1 - steal0,
            "steal_frac": ((steal1 - steal0) / (total1 - total0)
                           if total1 > total0 else 0.0),
            "child_env": any_wl["env"], "versions": any_wl["versions"],
        })
        return self.data


# -- printing ------------------------------------------------------------------

def print_workload(name: str, red: dict) -> None:
    print(f"\n== {name}  (n_dof {red['n_dof']}, ops {red['ops']}, "
          f"failed_ops {red['failed_ops']}, samples K={red['samples']})")
    for metric, (unit, better, bound) in END_TO_END.items():
        print(f"  {metric:<18} {red['metrics'][metric]:>14.4f} {unit:<12}"
              f" ({better} is better, bound {bound:.2f})")
    p50s = ", ".join(f"{v:.1f}" for v in red["round_p50_ms"])
    print(f"  raw per-round p50 [ms]: {p50s}   spread "
          f"{100 * red['round_spread_frac']:.1f}%")
    setups = ", ".join(f"{v:.2f}" for v in red["setup_samples_s"])
    print(f"  set-up samples [s]: {setups}")
    for p in red["problems"]:
        print(f"  CHECK FAILED: {p}")


def print_layers(name: str, layers: dict) -> None:
    print(f"\n-- per-layer, {name} (traced run; ms and counts per step)")
    for metric, value in layers.items():
        unit, _ = layer_spec(metric)
        print(f"  {metric:<40} {value:>16.4f} {unit}")


def print_fingerprint(fp: dict) -> None:
    print("\n-- host")
    for key, value in fp.items():
        print(f"  {key}: {value}")


# -- modes ---------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The BENCHMARK.json entry point: one workload, one result line."""
    os.makedirs(OUT, exist_ok=True)
    rounds = TRACE_ROUNDS if trace else wl.ROUNDS
    fp = Fingerprint(seed, rounds, seconds, [name])
    sample = measure([name], seed, rounds, seconds, extra_setups=False)[name]
    timed = wl.scaled_steps(name, seconds)
    red = reduce_workload(name, sample, load_reference(name, seed, timed))
    print_workload(name, red)
    if trace:
        probes = launch("probes.py")
        layers = traced_layers(name, seed, seconds, red, probes["metrics"])
        print_layers(name, layers)
        print(f"  probe info: {probes['info']}")
        metrics = {k: {"value": v, "unit": layer_spec(k)[0]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": red["metrics"][k], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
    print_fingerprint(fp.finish({name: red}))
    print(json.dumps({"correct": not red["problems"],
                      "attempted": red["ops"], "failed": red["failed_ops"],
                      "metrics": metrics}))
    return 0


def run_full(seed: int, rounds: int, out_path: str) -> dict:
    """A full set: every workload, interleaved rounds with the extra
    set-up launches, then the traced children and the probes."""
    os.makedirs(OUT, exist_ok=True)
    names = list(wl.WORKLOADS)
    seconds = wl.RUN_SECONDS
    fp = Fingerprint(seed, rounds, seconds, names)
    warm_page_cache()
    samples = measure(names, seed, rounds, seconds, extra_setups=True)
    reduced = {n: reduce_workload(
        n, samples[n], load_reference(n, seed, wl.scaled_steps(n, seconds)))
        for n in names}
    probes = launch("probes.py")
    layers = {n: traced_layers(n, seed, seconds, reduced[n],
                               probes["metrics"]) for n in names}
    for n in names:
        print_workload(n, reduced[n])
    for n in names:
        print_layers(n, layers[n])
    print(f"  probe info: {probes['info']}")
    result = {"fingerprint": fp.finish(reduced), "probe_info": probes["info"],
              "workloads": {n: dict(reduced[n], layers=layers[n])
                            for n in names}}
    print_fingerprint(result["fingerprint"])
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {out_path}")
    return result


def write_references() -> None:
    """Re-pin `reference/<workload>.seed0.json` from one seed-0 child
    each. Only for a change that means to move the trajectories."""
    os.makedirs(REFERENCE, exist_ok=True)
    for name, w in wl.WORKLOADS.items():
        out = launch_child(name, 0, w.timed)
        path = os.path.join(REFERENCE, f"{name}.seed0.json")
        with open(path, "w") as fh:
            json.dump(dict(out["summary"], digest=out["digest"],
                           versions=out["versions"]), fh, indent=1)
        print(f"wrote {path}")


def compare(a: dict, b: dict, symmetric: bool = False) -> bool:
    """Print B against A per workload x end-to-end metric. True when no
    pair is worse than its bound — or, with ``symmetric`` (two sets of
    the same code), when none is beyond it in either direction."""
    ok = True
    print(f"{'workload':<20} {'metric':<18} {'A':>14} {'B':>14} "
          f"{'rel':>8} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<20} missing from B")
            ok = False
            continue
        for metric, (_, better, bound) in END_TO_END.items():
            va, vb = wa["metrics"][metric], wb["metrics"][metric]
            w = stats.worsening(va, vb, better)
            v = stats.verdict(va, vb, better, bound)
            ok = ok and v != "worse" and not (symmetric and v == "better")
            print(f"{name:<20} {metric:<18} {va:>14.4f} {vb:>14.4f} "
                  f"{100 * w:>+7.1f}% {bound:>6.2f}  {v}")
    return ok


def selfcheck(seed: int, rounds: int) -> bool:
    """Two full sets of the same code, back to back, must agree within
    every bound and fail no operation."""
    sets = [run_full(seed, rounds, os.path.join(OUT, f"selfcheck_{tag}.json"))
            for tag in "ab"]
    ok = compare(*sets, symmetric=True)
    for name in sets[0]["workloads"]:
        spreads = " / ".join(f"{s['workloads'][name]['round_spread_frac']:.3f}"
                             for s in sets)
        print(f"noise.round_spread_frac {name}: {spreads}")
    failed = sum(w["failed_ops"] for s in sets
                 for w in s["workloads"].values())
    print(f"selfcheck: {'agree' if ok else 'DISAGREE'}, failed_ops {failed}")
    return ok and failed == 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=list(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=wl.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=wl.ROUNDS)
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as fh:
                loaded.append(json.load(fh))
        return 0 if compare(*loaded) else 1
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_references()
        return 0
    if args.selfcheck:
        return 0 if selfcheck(args.seed, args.rounds) else 1
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    result = run_full(args.seed, args.rounds,
                      os.path.join(OUT, f"result_seed{args.seed}.json"))
    failed = sum(w["failed_ops"] for w in result["workloads"].values())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
