"""Correctness checks of the benchmark's operations (stdlib only).

Each ``check_*`` returns a list of failure messages; an empty list means the
operation's output is correct.  The checks read the program's output files,
never its in-memory state, and use oracles independent of the package: the
closed-form soliton, the spectral identities, and a reference table of the
ladder cells stored beside this file.
"""

from __future__ import annotations

import cmath
import configparser
import csv
import json
import math
from pathlib import Path

SPECTRAL_RESIDUAL_MAX = 1e-6  # criterion 03: unitarity and mirror symmetry
K1_TOL = 1e-10  # k1 = A/2 for both pinned profiles (criteria 01-02)
REFLECTIONLESS_B_MAX = 1e-6  # criterion 02: max |b| of the soliton snapshot
SOLITON_TOL = 1e-3  # criterion 08: evolved field against the exact soliton
SOLITON_CHECK_TIMES = (1.5, 2.0, 2.5)  # ladder times before the pole at t = pi


def read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)
    return parser


def config_k_grid(parser: configparser.ConfigParser) -> list[float]:
    """The k grid a config asks for: ``n_per_sign`` log-spaced nodes per sign."""
    sec = parser["kgrid"] if "kgrid" in parser else {}
    n = int(float(sec.get("n_per_sign", 400)))
    k_min = float(sec.get("k_min", 1e-3))
    k_max = float(sec.get("k_max", 100.0))
    lo, hi = math.log10(k_min), math.log10(k_max)
    pos = [10.0 ** (lo + i * (hi - lo) / (n - 1)) for i in range(n)]
    pos[0], pos[-1] = k_min, k_max
    return [-k for k in reversed(pos)] + pos


def grid_mismatch(k_grid: list[float], expected: list[float]) -> list[str]:
    """A cache built for another grid must not pass as this config's data."""
    if len(k_grid) != len(expected):
        return [f"cache k grid has {len(k_grid)} nodes, config asks for {len(expected)}"]
    worst = max(abs(a - b) / abs(b) for a, b in zip(k_grid, expected))
    if worst > 1e-12:
        return [f"cache k grid differs from the config grid (relative {worst:.1e})"]
    return []


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def check_spectra(path, parser: configparser.ConfigParser, case: str) -> list[str]:
    """Checks of one spectral cache written by ``scatter``."""
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    fails = grid_mismatch(payload["k_grid"], config_k_grid(parser))
    if payload["case"] != case:
        fails.append(f"case tag {payload['case']}, expected {case}")
    for key in ("unitarity_residual", "symmetry_residual"):
        if not payload[key] <= SPECTRAL_RESIDUAL_MAX:
            fails.append(f"{key} {payload[key]:.2e} above {SPECTRAL_RESIDUAL_MAX:g}")
    half_a = 0.5 * float(parser["profile"].get("amplitude", 1.0))
    if not abs(payload["k1"] - half_a) <= K1_TOL:
        fails.append(f"k1 = {payload['k1']!r}, expected A/2 = {half_a!r}")
    if parser["profile"]["kind"] == "soliton-snapshot":
        b_max = max(abs(_complex(b)) for b in payload["b"])
        if not b_max < REFLECTIONLESS_B_MAX:
            fails.append(f"soliton max|b| = {b_max:.2e}, not reflectionless")
    return fails


# ---------------------------------------------------------------------------
# ladder


def load_reference(path) -> tuple[float, dict]:
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    cells = {cell_key(c): c for c in payload["cells"]}
    return payload["rel_tol"], cells


def cell_key(cell: dict) -> tuple:
    return (cell["data"], cell["alpha"], cell["s"], cell["t"], cell["side"])


def _close(value, ref, rel_tol: float) -> bool:
    v, r = _complex(value), _complex(ref)
    return cmath.isfinite(v) and abs(v - r) <= rel_tol * abs(r)


def check_cell(rec: dict, ref: dict, rel_tol: float) -> list[str]:
    """A returned cell is finite and matches the reference on both routes.

    A cell the reference records as raising may raise the same error (the
    known defect, counted as a failed operation but not as a wrong result)
    or return a finite value.
    """
    label = "data={data} alpha={alpha} s={s} t={t:g} side={side}".format(**rec)
    if rec.get("error"):
        if rec["error"] == ref.get("error"):
            return []
        return [f"{label}: raised {rec['error']}"]
    fails = []
    for route in ("expanded", "exact"):
        if ref.get(route) is None:
            if not cmath.isfinite(_complex(rec[route])):
                fails.append(f"{label}: {route} route not finite")
        elif not _close(rec[route], ref[route], rel_tol):
            fails.append(f"{label}: {route} route {rec[route]} vs reference {ref[route]}")
    return fails


# ---------------------------------------------------------------------------
# evolve


def soliton_exact(amplitude: float, phase: float, x: float, t: float) -> complex:
    """``A / (1 - exp(-A x - i A^2 t + i phase))``, the exact one-soliton."""
    expo = min(max(-amplitude * x, -745.0), 700.0)
    return amplitude / (1.0 - cmath.exp(complex(expo, phase - amplitude**2 * t)))


def check_compare(out_dir, parser: configparser.ConfigParser) -> tuple[list[str], float]:
    """Checks of one ``compare`` run on the soliton; also returns the worst
    snapshot error against the exact soliton at the checked times."""
    out = Path(out_dir)
    fails = []
    summary = {}
    for line in (out / "comparison-summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        if key in ("partial", "abort_reason"):
            summary[key] = value
    if summary.get("partial") != "yes":
        fails.append(f"summary partial={summary.get('partial')}, expected yes")
    reason = summary.get("abort_reason", "")
    if not reason.startswith("FieldBlowUpError in segment 3 -> 3.5"):
        fails.append(f"abort reason {reason!r}, expected a blow-up in segment 3 -> 3.5")

    wedge = parser["wedge"]
    n_cells = 1
    for key in ("alphas", "s_values", "t_ladder", "sides"):
        n_cells *= len(wedge[key].replace(",", " ").split())
    with open(out / "comparison.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != n_cells:
        fails.append(f"comparison has {len(rows)} rows, expected {n_cells}")
    for row in rows:
        for col in ("re_expanded", "im_expanded", "re_exact", "im_exact"):
            if not math.isfinite(float(row[col])):
                fails.append(f"comparison row t={row['t']} {col} not finite")

    prof = parser["profile"]
    amp, phase = float(prof["amplitude"]), float(prof["phase"])
    worst = 0.0
    seen = set()
    with open(out / "snapshots.csv", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            t, x, re_q, im_q = map(float, line.split(","))
            seen.add(t)
            if t in SOLITON_CHECK_TIMES:
                err = abs(complex(re_q, im_q) - soliton_exact(amp, phase, x, t))
                worst = max(worst, math.inf if math.isnan(err) else err)
    missing = [t for t in (*SOLITON_CHECK_TIMES, 3.0) if t not in seen]
    if missing:
        fails.append(f"snapshots missing at t={missing}")
    if not worst <= SOLITON_TOL:
        fails.append(f"snapshot error {worst:.2e} against the exact soliton above {SOLITON_TOL:g}")
    return fails, worst
