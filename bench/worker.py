"""Fresh-interpreter side of the benchmark: set-up probes and the ladder.

    python3 bench/worker.py setup WORKLOAD --work DIR [--cache FILE]
    python3 bench/worker.py ladder --work DIR --cache FILE --seed N --seconds S
                                   [--trace-out FILE]
    python3 bench/worker.py reference --cache FILE --out bench/ladder_reference.json

Every mode first does the workload's set-up as a fresh ``nnlswedge`` process
would: import the package, load the spectral data it needs (checking the
cached k grid against the config), create the output directory.  It then
prints ``{"event": "ready"}``; the parent times set-up up to that line.

``ladder`` then runs passes until ``--seconds`` have elapsed.  A pass loads
the smoothed-step data fresh from the cache and builds ``synthetic_case_ii()``
fresh, so every pass pays for building both phase trackers and their cached
constants, as every CLI call does.  Each operation is one wedge cell:
``predict_q`` then ``gen_as_predict``.  The seed only shuffles the cell order.
With ``--trace-out``, passes alternate untraced and traced, and the spans of
the traced passes are written to that file.  The last line printed is one
JSON object with every pass and cell.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nnlswedge.harness  # noqa: E402,F401  (the CLI's import set)
from nnlswedge import scattering, wedge  # noqa: E402

import checks  # noqa: E402

if not Path(nnlswedge.harness.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"nnlswedge was imported from {nnlswedge.harness.__file__}")

SMOOTHED_CONFIG = ROOT / "bench" / "configs" / "smoothed-step.ini"
SOLITON_CONFIG = ROOT / "bench" / "configs" / "soliton.ini"

ALPHAS = (0.5, 0.75, 0.9)
S_VALUES = (0.1, 1.0, 5.0)
TIMES = (1e4, 1e6, 1e8)
SIDES = ("+x", "-x")
DATA_SETS = ("smoothed-step", "synthetic-case-ii")


def ladder_cells() -> list[tuple]:
    """The 108 cells: both data sets x alpha x s x t x side."""
    return [
        (data, alpha, s, t, side)
        for data in DATA_SETS
        for alpha in ALPHAS
        for s in S_VALUES
        for t in TIMES
        for side in SIDES
    ]


def load_checked(cache: Path, config: Path):
    """Load a spectral cache, refusing one built for another k grid."""
    sd = scattering.load_spectral_data(cache)
    expected = checks.config_k_grid(checks.read_config(config))
    fails = checks.grid_mismatch(sd.k_grid.tolist(), expected)
    if fails:
        raise SystemExit(f"{cache}: {fails[0]}")
    return sd


def setup(workload: str, work: Path, cache: Path | None) -> None:
    if workload == "ladder":
        load_checked(cache, SMOOTHED_CONFIG)
        scattering.synthetic_case_ii()
    elif workload == "evolve":
        load_checked(cache, SOLITON_CONFIG)
    work.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"event": "ready"}), flush=True)


def run_cell(rec: dict, sd) -> None:
    point = wedge.wedge_point(rec["alpha"], rec["s"], rec["t"], wedge.Side(rec["side"]))
    expanded = wedge.predict_q(sd, point).total
    rec["expanded"] = [expanded.real, expanded.imag]
    exact = wedge.gen_as_predict(sd, point).total
    rec["exact"] = [exact.real, exact.imag]


def ladder_pass(cache: Path, cells: list[tuple]) -> dict:
    start = time.perf_counter()
    data = {
        "smoothed-step": scattering.load_spectral_data(cache),
        "synthetic-case-ii": scattering.synthetic_case_ii(),
    }
    records = []
    for name, alpha, s, t, side in cells:
        rec = {"data": name, "alpha": alpha, "s": s, "t": t, "side": side}
        op_start = time.perf_counter()
        try:
            run_cell(rec, data[name])
        except Exception as exc:  # a failing cell is counted, never fatal
            rec["error"] = type(exc).__name__
        rec["latency_s"] = time.perf_counter() - op_start
        records.append(rec)
    return {"wall_s": time.perf_counter() - start, "cells": records}


def ladder(args) -> None:
    setup("ladder", args.work, args.cache)
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer(f"ladder-seed{args.seed}")
    rng = random.Random(args.seed)
    cells = ladder_cells()
    passes = []
    ready = time.perf_counter()
    while True:
        # untraced and traced passes in the order U T T U, U T T U, ...
        traced = tracer is not None and len(passes) % 4 in (1, 2)
        if time.perf_counter() - ready >= args.seconds and (
            tracer is None or any(p["traced"] for p in passes)
        ):
            break
        rng.shuffle(cells)
        if traced:
            tracer.install()
        try:
            result = ladder_pass(args.cache, cells)
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        passes.append(result)
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps({"event": "done", "passes": passes}), flush=True)


def reference(args) -> None:
    """Write the reference table of the ladder cells from this build."""
    setup("ladder", args.cache.parent, args.cache)
    cells = []
    for rec in ladder_pass(args.cache, ladder_cells())["cells"]:
        rec.pop("latency_s")
        for route in ("expanded", "exact"):
            rec.setdefault(route, None)
        rec.setdefault("error", None)
        cells.append(rec)
    about = (
        "predict_q and gen_as_predict totals of the ladder cells; cells with "
        "an error raised it when this table was made"
    )
    # 100x the exact route's quadrature rtol (1e-9): chi errors enter the
    # totals through exp(2 chi) terms, with |chi| up to a few tens
    rel_tol = 1e-7
    rows = ",\n".join("  " + json.dumps(cell) for cell in cells)
    args.out.write_text(
        f'{{"about": {json.dumps(about)},\n "rel_tol": {rel_tol!r},\n "cells": [\n{rows}\n]}}\n',
        encoding="ascii",
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=("scatter", "ladder", "evolve"))
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--cache", type=Path)
    p = sub.add_parser("ladder")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--cache", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-out")
    p = sub.add_parser("reference")
    p.add_argument("--cache", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.workload, args.work, args.cache)
    elif args.mode == "ladder":
        ladder(args)
    else:
        reference(args)


if __name__ == "__main__":
    main()
