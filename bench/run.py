"""Benchmark of the nnlswedge pipeline: three closed-loop workloads.

    python3 bench/run.py --workload scatter|ladder|evolve|all --seed N
                         --seconds S --trace 0|1

``all`` runs the three workloads one after another, each in its own process.

One client, one operation in flight.  Each workload repeats a round of pinned
work until ``--seconds`` have elapsed (a started round always finishes):

* ``scatter``: a round is two cold ``nnlswedge scatter --force`` runs, one on
  the smoothed step (case I) and one on the soliton snapshot (case II), in a
  seed-chosen order.  Loads ``scattering`` (Jost sweep, ``k1`` search) and
  ``profiles``; the other layers stay idle.
* ``ladder``: a round is one in-process pass over 108 wedge cells
  (``predict_q`` then ``gen_as_predict``) on fresh smoothed-step and
  ``synthetic_case_ii()`` data, in a seed-shuffled order.  Loads ``phases``
  and ``specfun.quad`` on the exact route.
* ``evolve``: a round is one cold ``nnlswedge compare`` on the soliton, whose
  RK4 run reaches t = 3 and then hits the exact pole at t = pi.  Loads
  ``pde``; the wedge cells are reflectionless and cheap.

The seed only reorders operations; all configs are pinned (``configs/``).
Every operation's output is checked (``checks.py``); a failed check or an
exception counts as one failed operation and never stops the run.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``spans.py``), whose rounds alternate untraced and
traced so that the tracing overhead is measured in the same run.  The last
line printed is one JSON object; metric names and units are those declared
in ``BENCHMARK.json``.  Build outputs, caches and traces go to
``.bench_build/nnlswedge`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import LAYERS, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "nnlswedge"
WORK = ROOT / ".bench_build" / "nnlswedge"
CONFIGS = {
    "smoothed-step": BENCH / "configs" / "smoothed-step.ini",
    "soliton": BENCH / "configs" / "soliton.ini",
}
CASES = {"smoothed-step": "I", "soliton": "II"}
WORKLOADS = ("scatter", "ladder", "evolve")

SETUP_REPEATS = 3  # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_PROBES = 3  # `-X importtime` probes per traced run
OP_TIMEOUT_S = 60.0  # one cold CLI run takes under 10 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# RK4 step of pde.evolve, counted from its array expressions: each right-hand
# side reads and writes 39 complex arrays of the grid size (stencil, mirror
# term, pinning), the four stages combine through 31 more.
_RK4_ARRAYS_PER_STEP = 4 * 39 + 31
_COMPLEX_BYTES = 16


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


def py(script: str, *args) -> list[str]:
    return [sys.executable, str(BENCH / script), *map(str, args)]


def timed_ready(cmd: list[str], env: dict) -> tuple[float, subprocess.Popen]:
    """Start ``cmd`` and time it up to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not line.startswith('{"event": "ready"}'):
        proc.kill()
        proc.communicate()
        raise SystemExit(f"set-up failed: {' '.join(cmd)}")
    return elapsed, proc


def measure_setup(
    workload: str, work: Path, cache: Path | None, env: dict, repeats: int
) -> list[float]:
    """Fresh-interpreter set-ups, each run to completion."""
    times = []
    extra = ["--cache", cache] if cache is not None else []
    for i in range(repeats):
        elapsed, proc = timed_ready(
            py("worker.py", "setup", workload, "--work", work / f"setup{i}", *extra), env
        )
        proc.communicate()
        times.append(elapsed)
    return times


def run_cli(
    argv: list, env: dict, trace_file: Path | None, run_id: str
) -> tuple[float, str | None]:
    """One cold CLI command; returns (latency, error type or None)."""
    trace = ["--trace-out", trace_file, "--run-id", run_id] if trace_file else []
    cmd = py("cli.py", *trace, "--", *argv)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "Timeout"
    latency = time.perf_counter() - start
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return latency, last[0].split(":", 1)[0]
    return latency, None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def shared_cache(name: str, env: dict) -> Path:
    """The one-off spectral cache of a pinned profile, built once per source
    tree and config, checked on every use (k grid included)."""
    config = CONFIGS[name]
    key = hashlib.sha256((src_digest() + config.read_text()).encode()).hexdigest()[:16]
    path = WORK / "cache" / key / f"{name}.json"
    if not path.exists():
        tmp = path.parent / f"tmp-{os.getpid()}"
        argv = ["scatter", "--config", config, "--out", tmp, "--force"]
        _, err = run_cli(argv, env, None, "cache")
        if err:
            raise SystemExit(f"building the {name} cache failed: {err}")
        os.replace(tmp / "spectra.json", path)
        shutil.rmtree(tmp)
    fails = checks.check_spectra(path, checks.read_config(config), CASES[name])
    if fails:
        raise SystemExit(f"shared cache {path}: {'; '.join(fails)}")
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# workloads


class Run:
    """Outcome of one benchmark run: operations, rounds and traces."""

    def __init__(self):
        self.ops: list[float] = []  # latency of every operation
        self.failures: dict[str, int] = {}
        self.incorrect: list[str] = []  # failed checks (not known defects)
        self.rounds: list[tuple[float, bool]] = []  # (wall, traced)
        self.snapshots: list[dict] = []  # tracer output of traced processes
        self.output_bytes = 0  # of traced rounds
        self.soliton_err = 0.0
        self.setup: list[float] = []

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1


def cli_rounds(run: Run, workload: str, args, work: Path, env: dict) -> None:
    rng = random.Random(args.seed)
    soliton_cache = shared_cache("soliton", env) if workload == "evolve" else None
    run.setup = measure_setup(workload, work, soliton_cache, env, SETUP_REPEATS)
    n = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (
        args.trace and not any(traced for _, traced in run.rounds)
    ):
        # untraced and traced rounds in the order U T T U, U T T U, ...
        traced = bool(args.trace) and len(run.rounds) % 4 in (1, 2)
        if workload == "scatter":
            names = ["smoothed-step", "soliton"]
            rng.shuffle(names)
        else:
            names = ["soliton"]
        wall = 0.0
        for name in names:
            n += 1
            out = work / f"op{n}"
            out.mkdir()
            trace_file = work / f"op{n}-spans.json" if traced else None
            if workload == "scatter":
                argv = ["scatter", "--config", CONFIGS[name], "--out", out, "--force"]
            else:
                shutil.copyfile(soliton_cache, out / "spectra.json")
                argv = ["compare", "--config", CONFIGS[name], "--out", out]
            latency, err = run_cli(argv, env, trace_file, f"{workload}-seed{args.seed}-op{n}")
            wall += latency
            run.ops.append(latency)
            fails = []
            if err is None:
                parser = checks.read_config(CONFIGS[name])
                if workload == "scatter":
                    fails = checks.check_spectra(out / "spectra.json", parser, CASES[name])
                else:
                    fails, soliton_err = checks.check_compare(out, parser)
                    if traced:
                        run.soliton_err = max(run.soliton_err, soliton_err)
            if err or fails:
                run.fail(err or "CheckFailed")
                run.incorrect.append(f"{workload} op{n} ({name}): {err or '; '.join(fails)}")
            if traced:
                run.output_bytes += dir_bytes(out)
                if trace_file.exists():
                    run.snapshots.append(json.loads(trace_file.read_text()))
            shutil.rmtree(out)
        run.rounds.append((wall, traced))


def ladder_rounds(run: Run, args, work: Path, env: dict) -> None:
    cache = shared_cache("smoothed-step", env)
    rel_tol, reference = checks.load_reference(BENCH / "ladder_reference.json")
    run.setup = measure_setup("ladder", work, cache, env, SETUP_REPEATS - 1)
    trace_file = work / "ladder-spans.json"
    cmd = py(
        "worker.py", "ladder", "--work", work / "ladder", "--cache", cache,
        "--seed", args.seed, "--seconds", args.seconds,
        *(["--trace-out", trace_file] if args.trace else []),
    )
    elapsed, proc = timed_ready(cmd, env)
    run.setup.append(elapsed)
    try:
        out, _ = proc.communicate(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("ladder worker did not finish")
    if proc.returncode != 0:
        raise SystemExit(f"ladder worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    for p in result["passes"]:
        run.rounds.append((p["wall_s"], p["traced"]))
        for rec in p["cells"]:
            run.ops.append(rec["latency_s"])
            ref = reference[checks.cell_key(rec)]
            fails = checks.check_cell(rec, ref, rel_tol)
            if rec.get("error") or fails:
                run.fail(rec.get("error") or "CheckFailed")
            run.incorrect.extend(fails)
    if args.trace:
        run.snapshots.append(json.loads(trace_file.read_text()))


# ---------------------------------------------------------------------------
# metrics


def pct(values: list[float], q: float) -> float:
    """Percentile ``q`` (0-100) with linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Own peak plus the largest child's peak (the children run one at a time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(run: Run) -> dict[str, float]:
    failed = sum(run.failures.values())
    return {
        "wall_s": statistics.fmean(w for w, _ in run.rounds),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (len(run.ops) - failed) / len(run.ops),
    }


def import_probe(env: dict) -> tuple[float, float]:
    """Median cumulative import time of nnlswedge.harness and scipy.interpolate."""
    harness, interp = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nnlswedge.harness"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].isdigit():
                found[parts[2]] = int(parts[1]) * 1e-6
        harness.append(found["nnlswedge.harness"])
        interp.append(found.get("scipy.interpolate", 0.0))
    return statistics.median(harness), statistics.median(interp)


def per_layer(run: Run, env: dict) -> dict[str, float]:
    traced_walls = [w for w, traced in run.rounds if traced]
    plain_walls = [w for w, traced in run.rounds if not traced]
    rounds = len(traced_walls)
    durations: dict[str, list[float]] = {}
    callback_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    values: dict[str, float] = {}
    own = {layer: 0.0 for layer in LAYERS}
    for snap in run.snapshots:
        for s in snap["spans"]:
            durations.setdefault(s["name"], []).append(s["end"] - s["start"])
            callback_s[s["name"]] = callback_s.get(s["name"], 0.0) + s["callback_s"]
        for key, v in snap["counts"].items():
            counts[key] = counts.get(key, 0) + v
        for key, v in snap["values"].items():
            values[key] = max(values.get(key, v), v)
        for layer, v in self_times(snap["spans"]).items():
            own[layer] += v

    def total(name):
        return sum(durations.get(name, ())) / rounds

    def calls(name):
        return len(durations.get(name, ())) / rounds

    def errors(name, kind=""):
        return sum(v for k, v in counts.items() if k.startswith(f"{name}!{kind}")) / rounds

    import_s, import_interp_s = import_probe(env)
    steps = counts.get("pde.steps", 0) / rounds
    nodes = values.get("pde.nodes", 0)
    evolve_s = total("pde.evolve")
    overhead = statistics.fmean(traced_walls) - statistics.fmean(plain_walls)
    import_in_ops = sum(s["values"].get("harness.import_in_op_s", 0.0) for s in run.snapshots)
    covered = sum(own.values()) + import_in_ops
    metrics = {
        "harness.import_s": import_s,
        "harness.import_scipy_interpolate_s": import_interp_s,
        "harness.output_bytes": run.output_bytes / rounds,
        "profiles.sample_calls": calls("profiles.InitialProfile.sample"),
        "profiles.sample_s": total("profiles.InitialProfile.sample"),
        "scattering.scattering_grid_s": total("scattering.scattering_grid"),
        "scattering.k_nodes": values.get("scattering.k_nodes", 0),
        "scattering.find_k1_s": total("scattering.find_k1"),
        "scattering.small_k_data_s": total("scattering.small_k_data"),
        "scattering.check_assumption2_s": total("scattering.check_assumption2"),
        "scattering.save_s": total("scattering.save_spectral_data"),
        "scattering.load_s": total("scattering.load_spectral_data"),
        "scattering.cache_bytes": values.get("scattering.cache_bytes", 0),
        "specfun.quad_calls": calls("specfun.quad"),
        "specfun.quad_evals": counts.get("specfun.quad_evals", 0) / rounds,
        "specfun.quad_subdivisions": counts.get("specfun.quad_subdivisions", 0) / rounds,
        "specfun.quad_s": total("specfun.quad"),
        "specfun.quad_errors": errors("specfun.quad"),
        "specfun.root_func_evals": calls("scattering.root_target"),
        "specfun.root_polish_s": total("specfun.find_imag_axis_zero"),
        "specfun.log_gamma_calls": calls("specfun.log_gamma"),
        "phases.tracker_build_s": total("phases.PhaseTracker.__init__"),
        "phases.constants_s": total("phases.PhaseTracker.plateau")
        + total("phases.PhaseTracker.origin_constant"),
        "phases.chi_hat_calls": calls("phases.PhaseTracker.chi_hat"),
        "phases.chi_hat_p50_s": pct(durations.get("phases.PhaseTracker.chi_hat", []), 50),
        "phases.chi_hat_p90_s": pct(durations.get("phases.PhaseTracker.chi_hat", []), 90),
        "phases.nu_hat_s": total("phases.PhaseTracker.nu_hat"),
        "phases.integrand_s": callback_s.get("specfun.quad", 0.0) / rounds,
        "wedge.predict_q_p50_s": pct(durations.get("wedge.predict_q", []), 50),
        "wedge.gen_as_predict_p50_s": pct(durations.get("wedge.gen_as_predict", []), 50),
        "wedge.gen_as_predict_p90_s": pct(durations.get("wedge.gen_as_predict", []), 90),
        "wedge.exact_failures": errors("wedge.gen_as_predict"),
        "wedge.exact_failures_quadrature": errors("wedge.gen_as_predict", "QuadratureError"),
        "pde.evolve_s": evolve_s,
        "pde.steps": steps,
        "pde.nodes": nodes,
        "pde.ns_per_step_node": evolve_s / (steps * nodes) * 1e9 if steps and nodes else 0.0,
        "pde.bytes_per_step_computed": _RK4_ARRAYS_PER_STEP * _COMPLEX_BYTES * nodes,
        "pde.abort_t": values.get("pde.abort_t", 0.0),
        "pde.soliton_max_err": run.soliton_err,
        "pde.mirror_mass_drift": values.get("pde.mirror_mass_drift", 0.0),
        "pde.edge_drift": values.get("pde.edge_drift", 0.0),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / statistics.fmean(plain_walls),
        "trace.coverage": covered / sum(traced_walls),
        "trace.rounds": rounds,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own[layer] / rounds
    return metrics


# ---------------------------------------------------------------------------
# report


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, env: dict) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": versions[0],
        "scipy": versions[1],
        "blas_threads": {var: env.get(var) for var in BLAS_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "in_flight": 1,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, args, env: dict) -> dict:
    work = WORK / "runs" / f"{workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()
    try:
        if workload == "ladder":
            ladder_rounds(run, args, work, env)
        else:
            cli_rounds(run, workload, args, work, env)
        metrics = per_layer(run, env) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{workload}-seed{args.seed}.json").write_text(json.dumps(run.snapshots))
    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(units) ^ set(metrics))} not as declared")
    for line in run.incorrect:
        print(f"check failed: {line}", file=sys.stderr)
    failed = sum(run.failures.values())
    print(
        f"{workload}: {len(run.ops)} operations in {len(run.rounds)} rounds; "
        f"fail_frac = {failed}/{len(run.ops)} {run.failures or ''}",
        file=sys.stderr,
    )
    walls = ", ".join(f"{w:.3f}{'T' if traced else ''}" for w, traced in run.rounds)
    print(f"  round walls (s, T = traced): {walls}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}", file=sys.stderr)
    return {
        "correct": not run.incorrect,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no nnlswedge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each peak_rss_mb is its own
        flags = [f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}"]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, *flags]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    env = child_env()
    print(json.dumps({"run_record": run_record(args, env)}), flush=True)
    print(json.dumps(run_workload(args.workload, args, env)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
