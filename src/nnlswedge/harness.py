"""Config-driven experiment runner and command-line interface.

Reads a flat INI file (see ``docs/config-schema.md``), wires the scattering,
prediction, evolution, and matching modules together, and writes
deterministic CSV tables: identical config, identical bytes.  Floats are
printed with 17 significant digits (exact double round-trip).

Subcommands:

* ``scatter`` -- direct scattering for the configured profile, cached as JSON;
* ``predict`` -- expanded wedge predictions over the configured ladder;
* ``compare`` -- direct evolution against both prediction routes;
* ``match``   -- straight-ray matching ladder report.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import itertools
import math
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .pde import (
    BoundaryDriftError,
    FieldBlowUpError,
    SpatialGrid,
    evolve,
    interpolate_field,
    mirror_mass,
    resolve_dt,
    symmetric_grid,
    write_snapshots_csv,
)
from .phases import EXPANSION_BAND, K_FIT, WINDOW_FRACTION
from .profiles import DomainError, InitialProfile, ProfileKind
from .scattering import (
    SpectralData,
    compute_spectral_data,
    default_k_grid,
    save_spectral_data,
    step_count,
    synthetic_case_i,
    synthetic_case_ii,
)
from .wedge import (
    Side,
    WedgePoint,
    amplitude_Q,
    gen_as_predict,
    guard_fast_phase,
    matching_check,
    matching_ladder,
    predict_q,
    wedge_point,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "spectral_data_for",
    "cmd_scatter",
    "cmd_predict",
    "cmd_compare",
    "cmd_match",
    "main",
]

# the closed-form families a config can name instead of a sampled profile
_SYNTHETIC = {"synthetic-case-i": synthetic_case_i, "synthetic-case-ii": synthetic_case_ii}

# Largest [kgrid] n_per_sign accepted: beyond 2500x the default 400 a value is
# a typo, not a finer grid.  The synthetic families only evaluate closed forms
# on the grid; a sampled profile is bounded further by the sweep budget below.
_MAX_K_PER_SIGN = 10**6

# Largest amplitude and bump modulus accepted for a sampled profile.  From
# ~1e3 on the two k = 0 routes of the sweep already disagree
# (SmallKMismatchError), and from 1e6-1e8 on its Magnus steps overflow a
# double (1e300 overflows at once, in the soliton's A**2 among others).
_MAX_FIELD_LEVEL = 1e4

# Range accepted for each synthetic-family parameter (a zero coupling aside):
# the closed forms multiply them with 1/k on grids down to k_min, and
# d = 1e100 or k1 = 1e-300 overflow a double; 1e-50 .. 1e50 stays finite on
# the default grid.  Data that is still not finite on the [kgrid] nodes (a
# tiny k_min) is refused when the family is built.
_SYNTHETIC_RANGE = (1e-50, 1e50)

# Largest Jost grid sweep accepted for a sampled profile, in Magnus steps
# (``scattering.step_count`` at k_max) times k nodes.  The sweep's time grows
# linearly in both (0.5-0.8 ms per node per sign on the smoothed step,
# 0.9-1.2 ms on the soliton, whose 12,814 steps x 800 nodes = 1.0e7 is the
# benchmark's largest; 5 runs each, 2-vCPU host, both halves swept at once),
# so the budget, ~24x that, allows about 10 s of sweeping.
_MAX_SWEEP_WORK = 2.5e8

# Largest evolution a [pde] section may ask of ``compare``, in grid nodes
# times ETDRK4 steps to the last ladder time.  A step costs eight FFTs of the
# grid's length, measured at ~200 ns per node-step on 3,201 nodes and ~220 ns
# on 16,801 (smoothed step, median of 3 runs of 200 steps, 2-vCPU host), so
# the budget allows 3 to 4 minutes of stepping.  The soliton bench config
# needs 3,201 nodes x 700 steps = 2.2e6.
_MAX_EVOLVE_WORK = 1e9


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# configuration blocks


@dataclass(frozen=True)
class WedgeBlock:
    """The [wedge] ladder and the cells it makes: ``cells`` holds (t, point)
    per output row, in the order alpha, s, t, side (innermost), with the
    config's own t, which ``point.t`` = exp(ln t) need not reproduce."""

    t_ladder: tuple[float, ...]
    cells: tuple[tuple[float, WedgePoint], ...]


@dataclass(frozen=True)
class PdeBlock:
    """The [pde] grid, the initial field sampled on it and the time step
    resolved from that field, all built at load."""

    grid: SpatialGrid
    q0: np.ndarray
    dt: float


@dataclass(frozen=True)
class MatchBlock:
    """The [match] ladder's mode and rungs, as ``matching_ladder`` returns them."""

    mode: str
    points: tuple[WedgePoint, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see docs/config-schema.md)."""

    profile: InitialProfile | None
    synthetic: SpectralData | None  # a synthetic family's data on k_grid
    k_grid: np.ndarray
    wedge: WedgeBlock
    pde: PdeBlock | None
    match: MatchBlock | None
    out_dir: Path  # where every subcommand writes its files, under fixed names


# the files the subcommands write into the output directory
_CACHE = "spectra.json"
_PREDICTIONS = "predictions.csv"
_COMPARISON = "comparison.csv"
_SUMMARY = "comparison-summary.txt"
_MATCHING = "matching.csv"
_SNAPSHOTS = "snapshots.csv"


# Every key the config accepts, with its default, per section.  The
# [profile] keys depend on the kind's family: the sampled kinds share one set,
# each synthetic family has its own, and ``kind`` itself is accepted by all.
# A default's type says how a value is parsed: a float (or ``None``, unset) is
# a number, a tuple is a list of its element type.
_CONFIG_KEYS = {
    "profile": {
        "sampled": {
            "amplitude": 1.0,
            "width": 1.0,
            "radius": 20.0,
            "phase": 0.0,
            "bump_amplitude_re": 0.0,
            "bump_amplitude_im": 0.0,
            "bump_center": 1.5,
            "bump_width": 1.2,
        },
        "synthetic-case-i": {"k1": 0.6, "d": 0.9},
        "synthetic-case-ii": {"k1": 0.6, "pole": 1.0, "coupling": 0.5},
    },
    "kgrid": {"n_per_sign": 400.0, "k_min": 1e-3, "k_max": 100.0},
    "wedge": {
        "alphas": (0.5, 0.75, 0.9),
        "s_values": (1.0,),
        "t_ladder": (1e4, 1e6, 1e8),
        "sides": (Side.PLUS_X, Side.MINUS_X),
    },
    "pde": {"half_width": 40.0, "step": 0.02, "t_final": 1.0, "dt": None},
    "match": {
        "s": 1.0,
        "alphas": (0.9, 0.99, 0.999),
        "hold_product": None,
        "time": None,
    },
}


def _parse_value(raw: str | None, default, what: str):
    """One config value, parsed by the type of its default; absent or blank
    numbers take the default, blank lists, repeated list values and
    non-finite numbers are errors."""
    if raw is None or (raw == "" and not isinstance(default, tuple)):
        return default
    if isinstance(default, tuple):
        tokens = raw.replace(",", " ").split()
        try:
            values = tuple(type(default[0])(tok) for tok in tokens)
        except ValueError as exc:
            raise ConfigError(f"{what}: cannot parse {raw!r}: {exc}") from exc
        if not values:
            raise ConfigError(f"{what}: empty list")
        repeats = [tok for i, tok in enumerate(tokens) if values[i] in values[:i]]
        if repeats:
            raise ConfigError(f"{what}: {repeats[0]} is repeated")
    else:
        try:
            values = (float(raw),)
        except ValueError as exc:
            raise ConfigError(f"{what}: not a number: {raw!r}") from exc
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ConfigError(f"{what}: not a finite number")
    return values if isinstance(default, tuple) else values[0]


def load_config(path, *, out_dir="out") -> ExperimentConfig:
    """Parse and validate an experiment config file; the subcommands write
    into ``out_dir``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    unknown = set(parser.sections()) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "profile" not in parser:
        raise ConfigError("config needs a [profile] section")
    kind = parser["profile"].get("kind", "")
    kinds = [k.value for k in ProfileKind] + list(_SYNTHETIC)
    if kind not in kinds:
        raise ConfigError(f"profile.kind must be one of {kinds}, got {kind!r}")
    family = kind if kind in _SYNTHETIC else "sampled"

    schema = {**_CONFIG_KEYS, "profile": _CONFIG_KEYS["profile"][family]}
    values = {}
    for name, keys in schema.items():
        section = parser[name] if name in parser else {}
        given = set(section) - {"kind"} if name == "profile" else set(section)
        unknown = given - set(keys)
        if unknown:
            raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")
        values[name] = {
            key: _parse_value(section.get(key), default, f"{name}.{key}")
            for key, default in keys.items()
        }

    prof = values["profile"]
    profile = synthetic = None
    if family == "sampled":
        if prof["amplitude"] > _MAX_FIELD_LEVEL:
            raise ConfigError(
                f"profile.amplitude: {prof['amplitude']:g} above the ceiling of "
                f"{_MAX_FIELD_LEVEL:g}"
            )
        bump = complex(prof.pop("bump_amplitude_re"), prof.pop("bump_amplitude_im"))
        if abs(bump) > _MAX_FIELD_LEVEL:
            raise ConfigError(
                f"profile.bump_amplitude_re, bump_amplitude_im: modulus {abs(bump):g} "
                f"above the ceiling of {_MAX_FIELD_LEVEL:g}"
            )
        try:
            profile = InitialProfile(kind=ProfileKind(kind), bump_amplitude=bump, **prof)
        except ValueError as exc:
            raise ConfigError(f"invalid [profile]: {exc}") from exc
    else:
        low, high = _SYNTHETIC_RANGE
        for key, value in prof.items():
            if value != 0.0 and not low <= abs(value) <= high:
                raise ConfigError(f"profile.{key}: {value:g} outside [{low:g}, {high:g}]")

    kgrid = values["kgrid"]
    kgrid_n, kgrid_min, kgrid_max = kgrid["n_per_sign"], kgrid["k_min"], kgrid["k_max"]
    if not (kgrid_n.is_integer() and 4 <= kgrid_n <= _MAX_K_PER_SIGN):
        raise ConfigError(
            f"kgrid.n_per_sign: need an integer in [4, {_MAX_K_PER_SIGN}], got {kgrid_n!r}"
        )
    if not 0 < kgrid_min < kgrid_max:
        raise ConfigError("kgrid: need 0 < k_min < k_max")
    k_grid = default_k_grid(int(kgrid_n), kgrid_min, kgrid_max)
    if profile is None:
        try:
            # the family checks its parameters and its data on the grid
            synthetic = _SYNTHETIC[kind](**prof, k_grid=k_grid)
        except ValueError as exc:
            raise ConfigError(f"invalid [profile]: {exc}") from exc
    else:
        steps = step_count(profile, k_grid[-1])
        if steps * k_grid.size > _MAX_SWEEP_WORK:
            raise ConfigError(
                f"kgrid: the Jost sweep would take {steps} steps x {k_grid.size} k nodes "
                f"= {steps * k_grid.size:.3g}, over the budget of {_MAX_SWEEP_WORK:.3g}; "
                "lower k_max or n_per_sign"
            )

    w = values["wedge"]
    if any(b <= a for a, b in zip(w["t_ladder"], w["t_ladder"][1:])):
        raise ConfigError("wedge.t_ladder must be strictly increasing")
    cells = []
    for alpha, s, t in itertools.product(w["alphas"], w["s_values"], w["t_ladder"]):
        cell = f"wedge cell alpha={alpha:g}, s={s:g}, t={t:g}"
        try:
            point = wedge_point(alpha, s, t)
            guard_fast_phase(point)
        except ValueError as exc:
            raise ConfigError(f"{cell}: {exc}") from exc
        except OverflowError:
            raise ConfigError(f"{cell}: its fast phase overflows a double") from None
        cells += [(t, replace(point, side=side)) for side in w["sides"]]
    wedge = WedgeBlock(t_ladder=w["t_ladder"], cells=tuple(cells))

    match = None
    if "match" in parser:
        m = values["match"]
        if (m["hold_product"] is None) == (m["time"] is None):
            raise ConfigError("match: set exactly one of hold_product / time")
        try:
            mode, points = matching_ladder(
                m["s"], m["alphas"], t=m["time"], hold_product=m["hold_product"]
            )
        except ValueError as exc:
            raise ConfigError(f"invalid [match]: {exc}") from exc
        match = MatchBlock(mode=mode, points=points)

    # [pde] last: its checks sample the field and read every wedge cell
    pde = None
    if "pde" in parser:
        p = values["pde"]
        try:
            grid = symmetric_grid(p["half_width"], p["step"])
            resolve_dt(p["dt"], 0.0)
        except ValueError as exc:
            raise ConfigError(f"invalid [pde]: {exc}") from exc
        if profile is None:
            raise ConfigError("[pde] needs a sampled profile, not a synthetic family")
        t_last = wedge.t_ladder[-1]
        if t_last > p["t_final"] * (1.0 + 1e-12):
            raise ConfigError(
                f"wedge ladder reaches t={t_last:g} beyond pde.t_final={p['t_final']:g}"
            )
        # outside the try: a SolitonPoleError is a domain error, not a config error
        q0 = profile.sample(grid.x)
        dt = resolve_dt(p["dt"], float(np.max(np.abs(q0))))
        steps = t_last / dt
        steps = math.ceil(steps) if math.isfinite(steps) else steps  # a tiny dt overflows
        if grid.size * steps > _MAX_EVOLVE_WORK:
            raise ConfigError(
                f"pde: the evolution would take {grid.size} nodes x {steps:.0f} steps "
                f"= {grid.size * steps:.3g}, over the budget of {_MAX_EVOLVE_WORK:.3g}; "
                "lower half_width, t_ladder or the grid resolution"
            )
        clearance = 4.0 * max(profile.width, 1.0)
        xi_edge = WINDOW_FRACTION * k_grid[-1]
        for t, point in wedge.cells:
            cell = f"(alpha={point.alpha:g}, s={point.s:g}, t={t:g})"
            if point.x + clearance > grid.half_width:
                raise ConfigError(
                    f"wedge point x={point.x:.4g} {cell} too close to the "
                    f"boundary for half_width={grid.half_width:g}"
                )
            if not point.xi < xi_edge:
                raise ConfigError(
                    f"wedge point {cell} has slow variable xi={point.xi:.4g} "
                    f"outside the spectral window xi < {xi_edge:.4g} "
                    f"({WINDOW_FRACTION:g} * kgrid.k_max)"
                )
        pde = PdeBlock(grid=grid, q0=q0, dt=dt)

    return ExperimentConfig(
        profile=profile,
        synthetic=synthetic,
        k_grid=k_grid,
        wedge=wedge,
        pde=pde,
        match=match,
        out_dir=Path(out_dir),
    )


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt(value) -> str:
    """A float to 17 significant digits; ``None`` (not computed) is ``nan``."""
    return "nan" if value is None else f"{float(value):.17g}"


def _write_report(path: Path, schema: str, lines) -> Path:
    """Write a report: the line ``# schema: nnlswedge-<schema> v1``, then ``lines``."""
    path.write_text("\n".join([f"# schema: nnlswedge-{schema} v1", *lines, ""]), encoding="ascii")
    return path


def spectral_data_for(cfg: ExperimentConfig, *, force: bool = False) -> SpectralData:
    """Spectral data for the config: synthetic family or cached scattering run.

    Every subcommand calls this first, once its own checks have passed, so
    this is where the output directory is made."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.synthetic is not None:
        return cfg.synthetic
    return compute_spectral_data(
        cfg.profile, cfg.k_grid, cache_path=cfg.out_dir / _CACHE, force=force
    )


def _tracked_data(cfg: ExperimentConfig) -> SpectralData:
    """Spectral data for a subcommand that builds a phase tracker, whose
    tail fit needs nodes with |k| >= K_FIT; checked before any scattering."""
    if cfg.k_grid[-1] < K_FIT:
        raise ConfigError(
            f"kgrid.k_max = {cfg.k_grid[-1]:g} is below the phase tracker's "
            f"tail-fit window |k| >= {K_FIT:g}"
        )
    return spectral_data_for(cfg)


# ---------------------------------------------------------------------------
# scatter


def cmd_scatter(cfg: ExperimentConfig, *, force: bool = False) -> Path:
    """Compute (or reuse) the spectral cache; returns the cache path."""
    sd = spectral_data_for(cfg, force=force)
    cache = cfg.out_dir / _CACHE
    if cfg.synthetic is not None:
        # synthetic families bypass compute_spectral_data's own caching
        save_spectral_data(sd, cache)
    return cache


# ---------------------------------------------------------------------------
# predict


_PREDICT_HEADER = (
    "branch,case,side,alpha,s,t,re_leading,im_leading,re_correction,"
    "im_correction,re_total,im_total,abs_total,rough_magnitude,"
    "err_t_exponent,err_log_power,osc_coeff,logsq_coeff,logxloglog_coeff,"
    "loglin_coeff,loglog_coeff,const_coeff,in_band"
)


def _predict_row(sd: SpectralData, t: float, point: WedgePoint) -> str:
    pred = predict_q(sd, point)
    in_band = int(EXPANSION_BAND[0] <= point.s <= EXPANSION_BAND[1])
    return ",".join([
        pred.regime,
        pred.case.value,
        point.side.value,
        _fmt(point.alpha),
        _fmt(point.s),
        _fmt(t),
        _fmt(pred.leading.real),
        _fmt(pred.leading.imag),
        _fmt(pred.correction.real),
        _fmt(pred.correction.imag),
        _fmt(pred.total.real),
        _fmt(pred.total.imag),
        _fmt(abs(pred.total)),
        _fmt(pred.rough_magnitude),
        _fmt(pred.error_order.t_exponent),
        _fmt(pred.error_order.log_power),
        *[_fmt(v) for v in astuple(pred.ledger)],
        str(in_band),
    ])


def cmd_predict(cfg: ExperimentConfig) -> Path:
    """Write the expanded-prediction table of the config's cells; returns its path."""
    sd = _tracked_data(cfg)
    rows = [_predict_row(sd, t, point) for t, point in cfg.wedge.cells]
    return _write_report(cfg.out_dir / _PREDICTIONS, "predictions", [_PREDICT_HEADER, *rows])


# ---------------------------------------------------------------------------
# compare


_COMPARE_HEADER = (
    "branch,alpha,s,t,side,x,re_expanded,im_expanded,re_exact,im_exact,"
    "re_pde,im_pde,abs_gap_routes,rel_gap_routes,abs_gap_pde,rel_gap_pde,"
    "plateau_gap,phase_residual"
)


def _wrap_phase(value: float) -> float:
    return math.remainder(value, 2.0 * math.pi)


def cmd_compare(cfg: ExperimentConfig) -> tuple[Path, Path, Path]:
    """Run the evolution and join it against both prediction routes at the config's cells.

    Returns (comparison CSV, summary, snapshots CSV).  A blow-up or boundary
    abort mid-ladder is not fatal: rows for unreached times carry NaN
    evolution columns and the summary flags the run as partial.
    """
    if cfg.pde is None:
        raise ConfigError("compare needs a [pde] section")
    grid, q0, dt = cfg.pde.grid, cfg.pde.q0, cfg.pde.dt
    sd = _tracked_data(cfg)
    level = amplitude_Q(sd)
    w = cfg.wedge

    mass0 = mirror_mass(q0, grid.step)
    abort_reason = ""
    try:
        run = evolve(q0, grid, w.t_ladder[-1], dt=dt, snapshot_times=w.t_ladder)
    except (FieldBlowUpError, BoundaryDriftError) as exc:
        # an abort still yields the ladder times landed before it
        run = exc.partial
        n_reached = len(run.snapshots)
        last = w.t_ladder[n_reached - 1] if n_reached else 0.0
        abort_reason = (
            f"{type(exc).__name__} in segment "
            f"{_fmt(last)} -> {_fmt(w.t_ladder[n_reached])}: {exc}"
        )
    snapshots = {snap.t: snap.q for snap in run.snapshots}

    # one pass over the cells: each is evaluated once, written as a row and
    # filed as (t, evolution gap, plateau gap) under its (alpha, s, side)
    rows, groups = [], {}
    head = [f"# aborted: {abort_reason}"] if abort_reason else []
    for t, point in w.cells:
        alpha, s, side = point.alpha, point.s, point.side
        expanded = predict_q(sd, point)
        try:
            exact = gen_as_predict(sd, point).total
        except DomainError as exc:
            # one failing cell costs its exact-route columns, not the run
            exact = complex(math.nan, math.nan)
            head.append(
                f"# exact-route failed: alpha={_fmt(alpha)} s={_fmt(s)} t={_fmt(t)} "
                f"side={side.value}: {type(exc).__name__}: {exc}"
            )
        x = point.x if side is Side.PLUS_X else -point.x
        pde_re = pde_im = gap_pde = rel_gap_pde = plateau_gap = phase_residual = None
        if t in snapshots:
            pde_value = interpolate_field(grid, snapshots[t], x)
            pde_re, pde_im = pde_value.real, pde_value.imag
            gap_pde = abs(pde_value - exact)
            rel_gap_pde = gap_pde / level
            if side is Side.PLUS_X:
                plateau_gap = abs(abs(pde_value) - level)
                # the +x ledger is the main phase, which has no fast term
                ledger_phase = expanded.ledger.phase_at(point)
                phase_residual = abs(_wrap_phase(cmath.phase(pde_value) - ledger_phase))
        gap_routes = abs(expanded.total - exact)
        values = (
            x, expanded.total.real, expanded.total.imag, exact.real, exact.imag,
            pde_re, pde_im, gap_routes, gap_routes / level, gap_pde, rel_gap_pde,
            plateau_gap, phase_residual,
        )
        cell = [expanded.regime, _fmt(alpha), _fmt(s), _fmt(t), side.value]
        rows.append(",".join(cell + [_fmt(v) for v in values]))
        groups.setdefault((alpha, s, side), []).append((t, gap_pde, plateau_gap))
    path = _write_report(cfg.out_dir / _COMPARISON, "comparison", [*head, _COMPARE_HEADER, *rows])

    # summary: per (alpha, s, side) fitted decay exponents of the gaps
    lines = [f"plateau_modulus={_fmt(level)}"]
    lines.append(f"partial={'yes' if abort_reason else 'no'}")
    if abort_reason:
        lines.append(f"abort_reason={abort_reason}")
    # the evolution's own diagnostics over the reached snapshots; the edge
    # drifts are running maxima, so the last snapshot holds the largest
    edge_drift = max(run.final.left_drift, run.final.right_drift) if run.snapshots else 0.0
    mass_drift = max((abs(snap.mirror_mass - mass0) for snap in run.snapshots), default=0.0)
    lines.append(f"steps={run.steps}")
    lines.append(f"dt={_fmt(run.dt)}")
    lines.append(f"edge_drift={_fmt(edge_drift)}")
    lines.append(f"mirror_mass_drift={_fmt(mass_drift)}")
    for (alpha, s, side), group in groups.items():  # cell order: alpha, s, side
        label = f"alpha={_fmt(alpha)} s={_fmt(s)} side={side.value}"
        fitted = [(t, g) for t, g, _ in group if g is not None and math.isfinite(g) and g > 0.0]
        slope = None
        if len(fitted) >= 2:
            ts, gaps = zip(*fitted)
            slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
        lines.append(f"{label} pde_gap_exponent={_fmt(slope)}")
        plateau = [g for _, _, g in group if g is not None and math.isfinite(g)]
        if len(plateau) >= 2:
            decreasing = all(a > b for a, b in zip(plateau, plateau[1:]))
            lines.append(
                f"{label} plateau_gap_final={_fmt(plateau[-1])} "
                f"plateau_trend={'decreasing' if decreasing else 'mixed'}"
            )
    # fallback flag: with fewer than three evolved times the plateau trend
    # is not directly demonstrable and consumers must use the fitted
    # exponents instead
    lines.append(f"fallback_fitted_exponents={'yes' if len(snapshots) < 3 else 'no'}")
    summary_path = _write_report(cfg.out_dir / _SUMMARY, "comparison-summary", lines)

    # raw evolved fields, for reproducibility and plotting
    snap_path = cfg.out_dir / _SNAPSHOTS
    write_snapshots_csv(run, snap_path)
    return path, summary_path, snap_path


# ---------------------------------------------------------------------------
# match


_MATCH_HEADER = (
    "alpha,ln_t,phase_residual,mirror_log_magnitude,ray_log_magnitude"
)


def cmd_match(cfg: ExperimentConfig) -> Path:
    """Write the straight-ray matching report of ``[match]``; returns its path."""
    if cfg.match is None:
        raise ConfigError("match needs a [match] section")
    report = matching_check(_tracked_data(cfg), cfg.match.mode, cfg.match.points)
    residuals = [row.phase_residual for row in report.rows]
    trend = "decreasing" if all(a > b for a, b in zip(residuals, residuals[1:])) else "mixed"
    # a row's fields in order are the header's columns
    rows = [",".join(_fmt(v) for v in astuple(row)) for row in report.rows]
    # the limit comes from pow, which need not be correctly rounded, so it
    # may sit a few ulps off the closed form 4 s**2
    limit, expected = report.oscillation_coefficient_limit, report.oscillation_coefficient_expected
    status = "ok" if math.isclose(limit, expected, rel_tol=4e-16) else "off"
    tail = [
        f"# residual-trend: {trend}",
        f"# fast-coefficient-limit: value={_fmt(limit)} expected={_fmt(expected)} status={status}",
    ]
    if report.mirror_exponent is not None:
        tail.append(
            f"# mirror-decay-exponent: fitted={_fmt(report.mirror_exponent)} expected=-0.5"
        )
    if report.mirror_amplitude_ratio is not None:
        ratio = report.mirror_amplitude_ratio
        tail.append(
            f"# mirror-ray-ratio: re={_fmt(ratio.real)} im={_fmt(ratio.imag)} "
            f"abs={_fmt(abs(ratio))} arg={_fmt(cmath.phase(ratio))}"
        )
    head = f"# mode={report.mode} case={report.case.value} s={_fmt(report.s)}"
    return _write_report(cfg.out_dir / _MATCHING, "matching", [head, _MATCH_HEADER, *rows, *tail])


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nnlswedge",
        description=(
            "Wedge asymptotics of the mirror-coupled Schrodinger field: "
            "scattering, predictions, direct evolution, matching."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scatter", "compute and cache the spectral data for the profile"),
        ("predict", "evaluate wedge predictions over the configured ladder"),
        ("compare", "run the evolution and compare against predictions"),
        ("match", "run the straight-ray matching ladder"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if name == "scatter":
            p.add_argument(
                "--force", action="store_true", help="recompute, ignore cache"
            )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out_dir=args.out)
        if args.command == "scatter":
            paths = [cmd_scatter(cfg, force=args.force)]
        elif args.command == "predict":
            paths = [cmd_predict(cfg)]
        elif args.command == "compare":
            paths = list(cmd_compare(cfg))
        else:
            paths = [cmd_match(cfg)]
    except ConfigError as exc:
        parser.exit(2, f"config error: {exc}\n")
    except DomainError as exc:
        parser.exit(3, f"error: {type(exc).__name__}: {exc}\n")
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
