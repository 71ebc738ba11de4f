"""Tests for the config-driven experiment runner and its CLI."""

from __future__ import annotations

import ast
import collections
import functools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnlswedge.harness import (
    _CONFIG_KEYS,
    _MAX_EVOLVE_WORK,
    _MAX_SWEEP_WORK,
    ConfigError,
    cmd_compare,
    cmd_match,
    cmd_predict,
    cmd_scatter,
    load_config,
    main,
    spectral_data_for,
)
from nnlswedge import harness, wedge
from nnlswedge.profiles import ProfileKind
from nnlswedge.scattering import CaseTag, _step_edges, load_spectral_data, step_count
from nnlswedge.specfun import QuadratureError
from nnlswedge.wedge import Side

_REPO = Path(__file__).resolve().parents[1]
_SCHEMA_DOC = _REPO / "docs" / "config-schema.md"


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


def _table(path):
    """Split a CSV report into (comment lines, header, data rows)."""
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


# ---------------------------------------------------------------------------
# configuration loading


def test_load_config_defaults(tmp_path):
    ini = _write(tmp_path, "[profile]\nkind = pure-step\n")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    assert cfg.profile is not None and cfg.synthetic is None
    assert cfg.k_grid.size == 2 * 400
    assert cfg.k_grid[400] == 1e-3 and cfg.k_grid[-1] == 100.0
    points = [point for _, point in cfg.wedge.cells]
    assert tuple(dict.fromkeys(point.alpha for point in points)) == (0.5, 0.75, 0.9)
    assert tuple(dict.fromkeys(point.s for point in points)) == (1.0,)
    assert cfg.wedge.t_ladder == (1e4, 1e6, 1e8)
    assert tuple(dict.fromkeys(point.side for point in points)) == (Side.PLUS_X, Side.MINUS_X)
    assert cfg.pde is None and cfg.match is None
    assert cfg.out_dir == tmp_path / "out"


def test_load_config_synthetic_params(tmp_path):
    ini = _write(
        tmp_path,
        "[profile]\nkind = synthetic-case-ii\nk1 = 0.7\ncoupling = 0.25\n",
    )
    cfg = load_config(ini)
    assert cfg.profile is None
    assert cfg.synthetic.profile_fingerprint == (
        "synthetic-case-ii:k1=0.7:pole=1.0:coupling=0.25"
    )


@pytest.mark.parametrize(
    "body",
    [
        "[profile]\nkind = pure-step\n[bogus]\nx = 1\n",  # unknown section
        "[profile]\nkind = no-such-shape\n",  # unknown kind
        "[profile]\nkind = pure-step\nvelocity = 3\n",  # unknown profile key
        "[kgrid]\nn_per_sign = 10\n",  # missing [profile]
        "[profile]\nkind = pure-step\n[wedge]\nt_ladder = 10, 10\n",
        "[profile]\nkind = pure-step\n[wedge]\nt_ladder = 0.5, 2\n",
        "[profile]\nkind = pure-step\n[wedge]\nalphas = 1.5\n",
        "[profile]\nkind = pure-step\n[wedge]\ns_values = -1\n",
        "[profile]\nkind = pure-step\n[wedge]\nsides = up\n",
        "[profile]\nkind = pure-step\n[kgrid]\nk_min = 5\nk_max = 1\n",
        "[profile]\nkind = pure-step\n[match]\ns = 1\n",  # neither mode
        "[profile]\nkind = pure-step\n[match]\nhold_product = 1\ntime = 100\n",
        "[profile]\nkind = pure-step\n[tolerances]\nbogus = 1\n",
        # misspelt keys, one per section and profile family
        "[profile]\nkind = pure-step\n[kgrid]\nn_persign = 60\n",
        "[profile]\nkind = pure-step\n[wedge]\nalpha = 0.5\n",
        "[profile]\nkind = pure-step\n[pde]\nstepp = 0.05\n",
        "[profile]\nkind = pure-step\n[match]\nalpha = 0.9\nhold_product = 1\n",
        "[profile]\nkind = pure-step\n[output]\ndirectori = elsewhere\n",
        "[profile]\nkind = synthetic-case-i\namplitude = 1\n",
        "[profile]\nkind = smoothed-step\nd = 0.9\n",
        "kind = pure-step\n[profile]\n",  # a key before any section
    ],
)
def test_load_config_rejections(tmp_path, body):
    ini = _write(tmp_path, body)
    with pytest.raises(ConfigError):
        load_config(ini)


def test_unknown_key_error_names_section_and_key(tmp_path, capsys):
    ini = _write(tmp_path, "[profile]\nkind = pure-step\n[kgrid]\nn_persign = 60\n")
    with pytest.raises(SystemExit) as err:
        main(["predict", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "config error: unknown [kgrid] keys: ['n_persign']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("[wedge]\nalphas = 0.5, 0.75, 0.50\n", "wedge.alphas: 0.50 is repeated"),
        ("[wedge]\ns_values = 1, 2, 1\n", "wedge.s_values: 1 is repeated"),
        ("[wedge]\nsides = +x, -x, +x\n", "wedge.sides: +x is repeated"),
        (
            "[match]\nalphas = 0.9, 0.99, 0.9\nhold_product = 1\n",
            "match.alphas: 0.9 is repeated",
        ),
    ],
    ids=["wedge-alphas", "wedge-s-values", "wedge-sides", "match-alphas"],
)
def test_load_config_rejects_repeated_list_values(tmp_path, body, message):
    # a repeated value would write duplicate rows and weigh twice in the
    # compare summary's pde_gap_exponent fit
    ini = _write(tmp_path, "[profile]\nkind = synthetic-case-i\n" + body)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(ini)


def _doc_key_tables():
    """Keys listed in each table of docs/config-schema.md, by the section or
    profile family named in the table's heading."""
    tables, heading = {}, None
    for line in _SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            named = re.search(r"`\[?([\w-]+)\]?`", line)
            heading = named.group(1) if named else None
        elif line.startswith("| `") and heading is not None:
            first_cell = line.split("|")[1]
            tables.setdefault(heading, set()).update(re.findall(r"`(\w+)`", first_cell))
    return tables


def test_schema_doc_lists_exactly_the_accepted_keys():
    families = dict(_CONFIG_KEYS["profile"])
    expected = {name: set(keys) for name, keys in _CONFIG_KEYS.items()}
    expected["profile"] = {"kind", *families.pop("sampled")}
    expected.update((family, set(keys)) for family, keys in families.items())
    assert _doc_key_tables() == expected


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# predict


_PREDICT_INI = """\
[profile]
kind = synthetic-case-i

[wedge]
alphas = 0.5, 0.75
s_values = 1.0
t_ladder = 1e3, 1e4, 1e5, 1e6, 1e7
sides = +x, -x
"""


def test_predict_table_layout_and_regimes(tmp_path):
    ini = _write(tmp_path, _PREDICT_INI)
    cfg = load_config(ini, out_dir=tmp_path / "out")
    path = cmd_predict(cfg)
    comments, header, rows = _table(path)
    assert comments[0] == "# schema: nnlswedge-predictions v1"
    assert header[0] == "branch" and header[-1] == "in_band"
    assert len(rows) == 2 * 1 * 5 * 2  # alphas x s x ladder x sides
    branches = {r[0] for r in rows}
    assert branches == {
        "I+x/explicit-correction",  # alpha = 0.5 plus side
        "I+x/leading-only",  # alpha = 0.75 plus side
        "I-x/bound-only",  # alpha = 0.5 minus side
        "I-x/explicit-correction",  # alpha = 0.75 minus side
    }
    for r in rows:
        assert r[1] == "I"
        assert r[-1] == "1"  # s = 1 sits inside the expansion band
        if r[2] == "+x":
            # the coarse magnitude of a plateau row is the plateau itself
            assert float(r[13]) == pytest.approx(1.2, abs=1e-12)


def test_predict_output_is_deterministic(tmp_path):
    ini = _write(tmp_path, _PREDICT_INI)
    cfg = load_config(ini, out_dir=tmp_path / "out")
    first = cmd_predict(cfg).read_bytes()
    second = cmd_predict(cfg).read_bytes()
    assert first == second


def test_predict_reflectionless_rows_sit_on_the_plateau(tmp_path):
    ini = _write(
        tmp_path,
        "[profile]\nkind = synthetic-case-ii\ncoupling = 0\n"
        "[wedge]\nalphas = 0.6\nt_ladder = 1e4, 1e6\n",
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    _, _, rows = _table(cmd_predict(cfg))
    plus = [r for r in rows if r[2] == "+x"]
    assert plus
    for r in plus:
        assert abs(float(r[12]) - 1.2) < 1e-10  # modulus = 2 k1 exactly
    for r in rows:
        if r[2] == "-x":
            assert float(r[12]) < 1e-10  # no reflected tail at all


def test_predict_flags_out_of_band_scale(tmp_path):
    ini = _write(
        tmp_path,
        "[profile]\nkind = synthetic-case-i\n"
        "[wedge]\nalphas = 0.5\ns_values = 30\nt_ladder = 1e4\n",
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    _, _, rows = _table(cmd_predict(cfg))
    assert rows and all(r[-1] == "0" for r in rows)


@pytest.mark.parametrize("kind, h", [("synthetic-case-i", 1), ("synthetic-case-ii", 0)])
def test_rough_magnitude_reads_the_regime_laws(tmp_path, kind, h):
    # both sides of alpha = 2/3 reach all four expanded regimes
    ini = _write(
        tmp_path, f"[profile]\nkind = {kind}\n[wedge]\nalphas = 0.5, 0.9\nt_ladder = 1e4, 1e8\n"
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    _, header, rows = _table(cmd_predict(cfg))
    sd = spectral_data_for(cfg)
    column = dict(zip(header, range(len(header))))
    regimes = set()
    for row in rows:
        alpha, s, t = (float(row[column[name]]) for name in ("alpha", "s", "t"))
        side, regime = Side(row[column["side"]]), row[column["branch"]].split("/")[1]
        pred = wedge.predict_q(sd, wedge.wedge_point(alpha, s, t, side))
        if side is Side.PLUS_X:
            expected = wedge.amplitude_Q(sd)
        elif regime == "explicit-correction":
            expected = t ** ((4.0 - 3.0 * alpha) / (2.0 * alpha - 4.0)) * math.log(t) ** (h / 2)
        else:
            expected = t ** (1.0 / (alpha - 2.0)) * math.log(t)
        assert pred.rough_magnitude == pytest.approx(expected, rel=1e-14)
        assert float(row[column["rough_magnitude"]]) == pred.rough_magnitude
        regimes.add((side.value, regime))
    assert regimes == {
        ("+x", "explicit-correction"),
        ("+x", "leading-only"),
        ("-x", "explicit-correction"),
        ("-x", "bound-only"),
    }


# ---------------------------------------------------------------------------
# scatter


def test_scatter_cache_roundtrip(tmp_path):
    ini = _write(
        tmp_path,
        "[profile]\nkind = pure-step\namplitude = 1.0\n"
        "[kgrid]\nn_per_sign = 40\nk_min = 1e-2\nk_max = 10\n",
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    cache = cmd_scatter(cfg)
    assert cache.exists()
    sd = load_spectral_data(cache)
    assert sd.case is CaseTag.CASE_I
    assert sd.k1 == pytest.approx(0.5, abs=1e-6)  # half the amplitude
    # second run reuses the cache byte for byte
    before = cache.read_bytes()
    assert cmd_scatter(cfg) == cache
    assert cache.read_bytes() == before


def test_scatter_synthetic_honours_kgrid(tmp_path):
    ini = _write(
        tmp_path,
        "[profile]\nkind = synthetic-case-ii\n[kgrid]\nn_per_sign = 60\n",
    )
    cache = cmd_scatter(load_config(ini, out_dir=tmp_path / "out"))
    assert len(load_spectral_data(cache).k_grid) == 120


def _modules_after(script, top="scipy"):
    """Run ``script`` in a fresh interpreter with ``src`` on the path; return
    its last stdout line with the sorted modules under the top-level name
    ``top`` that it loaded appended."""
    script += f"\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_scatter_loads_no_scipy(tmp_path):
    # a fresh interpreter: scipy loads only for the parametrix's rgamma on
    # dressed data, and `scatter` builds no parametrix
    ini = _write(
        tmp_path,
        "[profile]\nkind = pure-step\namplitude = 1.0\n"
        "[kgrid]\nn_per_sign = 16\nk_min = 1e-2\nk_max = 10\n",
    )
    argv = ["scatter", "--config", str(ini), "--out", str(tmp_path / "out")]
    script = f"import nnlswedge.harness as harness\nprint(harness.main({argv!r}), end=' ')"
    assert _modules_after(script) == "0 []"


def test_no_subcommand_loads_openssl(tmp_path):
    # the cache fingerprint is the profile's canonical JSON, not a digest,
    # so no subcommand imports hashlib and with it OpenSSL's _hashlib
    ini = _write(
        tmp_path,
        "[profile]\nkind = pure-step\namplitude = 1.0\n"
        "[kgrid]\nn_per_sign = 16\nk_min = 1e-2\nk_max = 40\n"
        "[wedge]\nalphas = 0.5\ns_values = 1.0\nt_ladder = 1.5, 2\n"
        "[pde]\nhalf_width = 8\nstep = 0.1\nt_final = 2\n"
        "[match]\nhold_product = 2.0\n",
    )
    argvs = [
        [command, "--config", str(ini), "--out", str(tmp_path / "out")]
        for command in ("scatter", "predict", "compare", "match")
    ]
    script = (
        "import nnlswedge.harness as harness\n"
        f"print(*[harness.main(argv) for argv in {argvs!r}], end=' ')"
    )
    assert _modules_after(script, top="_hashlib") == "0 0 0 0 []"


def test_reflectionless_compare_loads_no_scipy(tmp_path):
    # the phase tracker's spline is numpy's, and reflectionless data (the
    # criterion-02 soliton, every dressed reflection value below 1e-10 here)
    # have no dressed pair, so the parametrix's rgamma is never called
    ini = _write(
        tmp_path,
        "[profile]\nkind = soliton-snapshot\namplitude = 1.0\n"
        "phase = 3.141592653589793\nradius = 26.0\n"
        "[kgrid]\nn_per_sign = 60\n"
        "[wedge]\nalphas = 0.5, 0.75\ns_values = 1.0\nt_ladder = 2, 2.5, 3\n"
        "[pde]\nhalf_width = 16\nstep = 0.05\nt_final = 3\n",
    )
    argv = ["compare", "--config", str(ini), "--out", str(tmp_path / "out")]
    script = f"import nnlswedge.harness as harness\nprint(harness.main({argv!r}), end=' ')"
    assert _modules_after(script) == "0 []"


def test_phase_tracker_loads_no_scipy():
    script = (
        "from nnlswedge.phases import PhaseTracker, wedge_point\n"
        "from nnlswedge.scattering import synthetic_case_i\n"
        "value = PhaseTracker(synthetic_case_i()).chi_hat(0.0, wedge_point(0.5, 1.0, 1e4))\n"
        "print(int(value == value), end=' ')"
    )
    assert _modules_after(script) == "1 []"


@pytest.mark.parametrize(
    "profile",
    ["kind = synthetic-case-ii\n", "kind = smoothed-step\n[kgrid]\nn_per_sign = 40\n"],
    ids=["case-ii", "smoothed-step"],
)
def test_reflecting_predict_and_match_load_no_scipy(tmp_path, profile):
    # case II data build the parametrix pair in both subcommands; its
    # reciprocal gamma is the package's own
    ini = _write(tmp_path, f"[profile]\n{profile}[match]\nhold_product = 2.0\n")
    argvs = [
        [command, "--config", str(ini), "--out", str(tmp_path / "out")]
        for command in ("predict", "match")
    ]
    script = (
        "import nnlswedge.harness as harness\n"
        f"print(*[harness.main(argv) for argv in {argvs!r}], end=' ')"
    )
    assert _modules_after(script) == "0 0 []"


def test_package_never_imports_scipy():
    # scipy is the tests' oracle only: no module imports it, at the top or
    # deferred inside a function
    paths = sorted((_REPO / "src" / "nnlswedge").glob("*.py"))
    assert len(paths) >= 8
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("command", ["predict", "compare", "match"])
def test_cli_rejects_grid_short_of_tail_window(tmp_path, capsys, command):
    # the phase tracker's tail fit needs nodes with |k| >= 30; the check
    # fires before any scattering run, so no cache is written
    ini = _write(
        tmp_path,
        "[profile]\nkind = pure-step\n"
        "[kgrid]\nn_per_sign = 40\nk_max = 20\n"
        "[wedge]\nalphas = 0.75\nt_ladder = 3, 4\n"
        "[pde]\nhalf_width = 16\nstep = 0.05\nt_final = 4\n"
        "[match]\nhold_product = 1\n",
    )
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(ini), "--out", str(out)])
    assert err.value.code == 2
    assert "config error: kgrid.k_max = 20" in capsys.readouterr().err
    assert not (out / "spectra.json").exists()


# ---------------------------------------------------------------------------
# compare


def _assert_refused_at_load(tmp_path, capsys, body, message):
    """Every subcommand refuses the config ``body`` with exit code 2 and the
    config error ``message``, and writes no file."""
    ini, out = _write(tmp_path, body), tmp_path / "out"
    for command in ("scatter", "predict", "compare", "match"):
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(ini), "--out", str(out)])
        assert err.value.code == 2, command
        assert capsys.readouterr().err == f"config error: {message}\n", command
    assert not out.exists()


def test_compare_geometry_rejections(tmp_path, capsys):
    # a [pde] section that compare could not evolve is refused at load
    soliton = "[profile]\nkind = soliton-snapshot\nphase = 3.14159265\n"
    base = "[wedge]\nalphas = 0.75\nt_ladder = 3, 4\n"
    pde = "[pde]\nhalf_width = 16\nstep = 0.05\nt_final = 4\n"
    cases = [
        # synthetic families cannot be sampled on a grid
        (
            "[profile]\nkind = synthetic-case-i\n" + base + pde,
            "[pde] needs a sampled profile, not a synthetic family",
        ),
        # ladder reaches past the evolution horizon
        (
            soliton + base + "[pde]\nhalf_width = 16\nstep = 0.05\nt_final = 3.5\n",
            "wedge ladder reaches t=4 beyond pde.t_final=3.5",
        ),
        # wedge point too close to the boundary
        (
            soliton + base + "[pde]\nhalf_width = 8\nstep = 0.05\nt_final = 4\n",
            "wedge point x=7.3 (alpha=0.75, s=1, t=3) too close to the boundary "
            "for half_width=8",
        ),
        # slow variable xi = 54.5 beyond half the k window (edge 100)
        (
            "[profile]\nkind = smoothed-step\n"
            "[wedge]\nalphas = 0.9\ns_values = 100\nt_ladder = 2\nsides = +x\n"
            "[pde]\nhalf_width = 450\nstep = 0.5\nt_final = 2\n",
            "wedge point (alpha=0.9, s=100, t=2) has slow variable xi=54.46 outside the "
            "spectral window xi < 50 (0.5 * kgrid.k_max)",
        ),
    ]
    for body, message in cases:
        _assert_refused_at_load(tmp_path, capsys, body, message)
    # with no [pde] section at all only compare refuses, before any scattering run
    cfg = load_config(_write(tmp_path, soliton + base), out_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match=r"^compare needs a \[pde\] section$"):
        cmd_compare(cfg)
    assert not (tmp_path / "out").exists()


def test_compare_abort_yields_partial_report(tmp_path, monkeypatch):
    # carrier phase pi drives the field into a finite-time singularity
    # between the two ladder times: the run must keep the reached rows,
    # mark the report partial, and carry NaN columns for the rest; an
    # exact-route cell that fails costs only that row's exact-route columns
    ini = _write(
        tmp_path,
        "[profile]\nkind = soliton-snapshot\namplitude = 1.0\n"
        "phase = 3.141592653589793\n"
        "[kgrid]\nn_per_sign = 60\n"
        "[wedge]\nalphas = 0.75\ns_values = 1.0\nt_ladder = 3, 4\n"
        "sides = +x, -x\n"
        "[pde]\nhalf_width = 16.0\nstep = 0.05\nt_final = 4.0\n",
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    csv_path, summary_path, snap_path = cmd_compare(cfg)

    comments, _, rows = _table(csv_path)
    # radiation from the pole, unresolved at h = 0.05, reaches the edges of
    # [-16, 16] first (drift 1.2e-3 at t = 3.16, max|q| ~ 4)
    assert any(c.startswith("# aborted: BoundaryDriftError") for c in comments)
    assert len(rows) == 4  # 2 times x 2 sides
    by_key = {(r[3], r[4]): r for r in rows}
    reached = by_key[("3", "+x")]
    assert float(reached[16]) < 1e-3  # plateau gap at the reached time
    assert float(reached[17]) < 1e-3  # phase residual likewise
    for side in ("+x", "-x"):
        missing = by_key[("4", side)]
        assert missing[10] == "nan" and missing[11] == "nan"
        assert missing[14] == "nan"  # no evolution gap either
        # both prediction routes still agree on the unreached rows
        assert float(missing[12]) < 1e-6

    summary = summary_path.read_text(encoding="ascii")
    assert "partial=yes" in summary
    assert "fallback_fitted_exponents=yes" in summary
    fields = dict(
        line.split("=", 1)
        for line in summary.splitlines()
        if line.split("=", 1)[0]
        in ("abort_reason", "steps", "dt", "edge_drift", "mirror_mass_drift")
    )
    assert sorted(fields) == [
        "abort_reason", "dt", "edge_drift", "mirror_mass_drift", "steps"
    ]
    # the abort time is absolute, inside the named segment, and the step
    # count includes the steps taken in it
    abort = re.fullmatch(
        r"BoundaryDriftError in segment 3 -> 4: .* at t=(\S+); enlarge the interval",
        fields["abort_reason"],
    )
    assert abort and 3.0 < float(abort.group(1)) < 4.0
    assert int(fields["steps"]) * float(fields["dt"]) > 3.0
    for key in ("dt", "edge_drift", "mirror_mass_drift"):
        assert math.isfinite(float(fields[key]))

    # snapshots hold exactly the reached times
    times = {
        line.split(",")[0]
        for line in snap_path.read_text(encoding="ascii").splitlines()
        if not line.startswith("#")
    }
    assert times == {"3"}

    real_exact_route = harness.gen_as_predict

    def failing_exact_route(sd, point):
        if math.isclose(point.t, 3.0) and point.side is Side.PLUS_X:
            raise QuadratureError("subdivision budget exhausted")
        return real_exact_route(sd, point)

    monkeypatch.setattr(harness, "gen_as_predict", failing_exact_route)
    assert main(["compare", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    failed_comments, _, failed_rows = _table(csv_path)
    assert failed_comments == comments + [
        "# exact-route failed: alpha=0.75 s=1 t=3 side=+x: "
        "QuadratureError: subdivision budget exhausted"
    ]
    exact_and_gaps = {8, 9, 12, 13, 14, 15}
    for row in failed_rows:
        expected = by_key[row[3], row[4]]
        if (row[3], row[4]) == ("3", "+x"):
            assert all(row[i] == "nan" for i in exact_and_gaps)
            expected = [v for i, v in enumerate(expected) if i not in exact_and_gaps]
            row = [v for i, v in enumerate(row) if i not in exact_and_gaps]
        assert row == expected
    assert summary_path.read_text(encoding="ascii") == summary


def test_compare_full_report_is_complete_and_deterministic(tmp_path):
    # carrier phase pi blows up only past t = pi, so every ladder time is
    # reached: the summary has no abort line, no fallback, one fitted
    # exponent per (alpha, s, side) and a plateau line on +x only
    ini = _write(
        tmp_path,
        "[profile]\nkind = soliton-snapshot\namplitude = 1.0\n"
        "phase = 3.141592653589793\n"
        "[kgrid]\nn_per_sign = 60\n"
        "[wedge]\nalphas = 0.5, 0.75\ns_values = 1.0\nt_ladder = 2, 2.5, 3\n"
        "sides = +x, -x\n"
        "[pde]\nhalf_width = 16\nstep = 0.05\nt_final = 3\n",
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    paths = cmd_compare(cfg)
    first = [path.read_bytes() for path in paths]

    num = r"[-+.e0-9]+"  # a finite number: no nan, no inf
    expected = [
        "# schema: nnlswedge-comparison-summary v1",
        rf"plateau_modulus={num}",
        "partial=no",
        r"steps=\d+",
        rf"dt={num}",
        rf"edge_drift={num}",
        rf"mirror_mass_drift={num}",
    ]
    for alpha in ("0.5", "0.75"):
        label = f"alpha={alpha} s=1 side="
        expected += [
            rf"{label}\+x pde_gap_exponent={num}",
            rf"{label}\+x plateau_gap_final={num} plateau_trend=(decreasing|mixed)",
            rf"{label}-x pde_gap_exponent={num}",
        ]
    expected.append("fallback_fitted_exponents=no")
    lines = paths[1].read_text(encoding="ascii").splitlines()
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.fullmatch(pattern, line), line

    assert [path.read_bytes() for path in cmd_compare(cfg)] == first


# ---------------------------------------------------------------------------
# match


def test_match_report_fixed_product(tmp_path):
    ini = _write(
        tmp_path,
        "[profile]\nkind = synthetic-case-i\n"
        "[match]\nhold_product = 1.0\ns = 1.0\nalphas = 0.9, 0.99, 0.999\n",
    )
    cfg = load_config(ini, out_dir=tmp_path / "out")
    comments, header, rows = _table(cmd_match(cfg))
    assert header[0] == "alpha" and header[2] == "phase_residual"
    residuals = [float(r[2]) for r in rows]
    assert len(residuals) == 3
    assert residuals[0] > residuals[1] > residuals[2]
    assert "# residual-trend: decreasing" in comments
    assert any(
        c.startswith("# fast-coefficient-limit") and c.endswith("status=ok")
        for c in comments
    )
    decay = [c for c in comments if c.startswith("# mirror-decay-exponent")]
    assert len(decay) == 1
    fitted = float(decay[0].split("fitted=")[1].split()[0])
    assert fitted == pytest.approx(-0.5, abs=0.02)


def test_match_fast_coefficient_line_reads_the_ledger_formula(tmp_path, monkeypatch):
    # the limit line evaluates the ledgers' own fast coefficient at
    # alpha = 1, so a wrong exponent there must read status=off; at
    # s = 2.759 the right formula's pow lands one ulp off 4 s**2 and must
    # still read status=ok
    cfgs = [
        load_config(
            _write(
                tmp_path,
                "[profile]\nkind = synthetic-case-i\n"
                f"[match]\nhold_product = 1.0\ns = {s}\nalphas = 0.9, 0.99\n",
            ),
            out_dir=tmp_path / s,
        )
        for s in ("1.5", "2.759")
    ]

    def limit_lines():
        lines = []
        for cfg in cfgs:
            comments, _, _ = _table(cmd_match(cfg))
            lines += [c for c in comments if c.startswith("# fast-coefficient-limit")]
        return lines

    assert limit_lines() == [
        "# fast-coefficient-limit: value=9 expected=9 status=ok",
        "# fast-coefficient-limit: value=30.448323999999996 expected=30.448324 status=ok",
    ]
    monkeypatch.setattr(
        wedge,
        "_fast_coefficient",
        lambda alpha, s: 2.0 ** (2.0 * alpha / (2.0 - alpha)) * s ** (3.0 / (2.0 - alpha)),
    )
    assert [line.rsplit("status=", 1)[1] for line in limit_lines()] == ["off", "off"]


# synthetic case II with W = 1 at k = 0 (a11 a21 = 1, so nu_1 = 0): both
# mirror constants carry 1/Gamma(+-i nu_1) = 0
_ZERO_MIRROR_MATCH = (
    "[profile]\nkind = synthetic-case-ii\npole = 1e8\n"
    "[match]\ns = 1\nalphas = 0.9, 0.99\nhold_product = 2\n"
)


def test_match_rung_with_zero_mirror_constant_reads_nan(tmp_path):
    # such a rung has no mirror log: its mirror and ray columns read nan, as
    # a non-explicit rung's do, and with no fitted rung left there is no
    # exponent line and no ratio line
    cfg = load_config(_write(tmp_path, _ZERO_MIRROR_MATCH), out_dir=tmp_path / "out")
    comments, header, rows = _table(cmd_match(cfg))
    assert header[3:] == ["mirror_log_magnitude", "ray_log_magnitude"]
    assert [row[0] for row in rows] == ["0.90000000000000002", "0.98999999999999999"]
    assert all(row[3:] == ["nan", "nan"] for row in rows)
    assert not any(c.startswith(("# mirror-decay-exponent", "# mirror-ray-ratio")) for c in comments)


def test_match_requires_section(tmp_path):
    ini = _write(tmp_path, "[profile]\nkind = synthetic-case-i\n")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    with pytest.raises(ConfigError):
        cmd_match(cfg)


# ---------------------------------------------------------------------------
# command line


def test_cli_predict_end_to_end(tmp_path, capsys):
    ini = _write(
        tmp_path,
        "[profile]\nkind = synthetic-case-i\n"
        "[wedge]\nalphas = 0.5\nt_ladder = 1e4, 1e6\n",
    )
    out = tmp_path / "out"
    code = main(["predict", "--config", str(ini), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "predictions.csv" in printed
    assert (out / "predictions.csv").exists()


def test_cli_rejects_bad_config_with_exit_2(tmp_path):
    ini = _write(tmp_path, "[profile]\nkind = pure-step\n[bogus]\nx = 1\n")
    with pytest.raises(SystemExit) as err:
        main(["predict", "--config", str(ini)])
    assert err.value.code == 2


def test_cli_refuses_an_output_section(tmp_path, capsys):
    # the files go to --out under fixed names: an [output] section is an
    # unknown section like any other, refused before anything is written
    elsewhere = tmp_path / "elsewhere"
    body = (
        f"{_SOLITON_COMPARE}[match]\nhold_product = 2\n"
        f"[output]\ndirectory = {elsewhere}\ncache = spectra.json\n"
    )
    _assert_refused_at_load(tmp_path, capsys, body, "unknown config sections: ['output']")
    assert not elsewhere.exists()


def test_cli_has_no_tol_flag(tmp_path, capsys):
    ini = _write(tmp_path, "[profile]\nkind = synthetic-case-i\n")
    with pytest.raises(SystemExit) as err:
        main(["predict", "--config", str(ini), "--tol", "x=1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --tol x=1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, extra, message",
    [
        ("[pde]\ndt = abc\n", [], None),
        ("[match]\ntime = 1e4x\n", [], None),
        ("[match]\nhold_product = wide\n", [], None),
        ("[kgrid]\nn_per_sign = 3\n", [], None),
        ("[kgrid]\nn_per_sign = 3.7\n", [], None),
        ("[wedge]\ns_values = 0.1\nt_ladder = 2, 5\n", [], None),
        ("[match]\nalphas = 0.9, 1.0\nhold_product = 1\n", [], None),
        ("[match]\ns = 0\ntime = 1e4\n", [], None),
        ("[match]\nhold_product = 0\n", [], None),
        ("[match]\ntime = 1\n", [], None),
        ("[pde]\nstep = 0\n", [], None),
        ("[pde]\nstep = 0.1\ndt = 0\n", [], "invalid [pde]: dt must be positive and finite"),
        # each of these overflowed a double inside predict and match
        (
            "[profile]\nkind = soliton-snapshot\nphase = 3.0\namplitude = 1e300\n",
            [],
            "profile.amplitude: 1e+300 above the ceiling of 10000",
        ),
        (
            "[profile]\nkind = synthetic-case-i\nd = 1e300\n",
            [],
            "profile.d: 1e+300 outside [1e-50, 1e+50]",
        ),
        (
            "[profile]\nkind = pure-step\nbump_amplitude_im = 1e300\n",
            [],
            "profile.bump_amplitude_re, bump_amplitude_im: modulus 1e+300 "
            "above the ceiling of 10000",
        ),
    ],
    ids=[
        "pde-dt",
        "match-time",
        "match-hold",
        "n-3",
        "n-3.7",
        "wedge-ln-4st",
        "match-alpha",
        "match-s",
        "match-hold-zero",
        "match-time-one",
        "pde-step-zero",
        "pde-dt-zero",
        "soliton-amplitude-overflow",
        "synthetic-d-overflow",
        "bump-overflow",
    ],
)
def test_cli_rejects_bad_numbers_as_config_errors(tmp_path, capsys, body, extra, message):
    if not body.startswith("[profile]"):
        body = "[profile]\nkind = synthetic-case-i\n" + body
    ini = _write(tmp_path, body)
    with pytest.raises(SystemExit) as err:
        main(["predict", "--config", str(ini), "--out", str(tmp_path / "out"), *extra])
    assert err.value.code == 2
    assert f"config error: {message or ''}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, body, extra, message",
    [
        ("predict", "[kgrid]\nk_max = inf\n", [], "kgrid.k_max: not a finite number"),
        ("predict", "[pde]\nhalf_width = inf\n", [], "pde.half_width: not a finite number"),
        (
            "predict",
            "[pde]\nhalf_width = 1e300\nstep = 1e-300\n",
            [],
            "invalid [pde]: half_width and step must be positive, with a finite ratio",
        ),
        ("match", "[match]\ns = inf\ntime = 1e4\n", [], "match.s: not a finite number"),
        (
            "predict",
            "[wedge]\nt_ladder = 1e4, inf\n",
            [],
            "wedge.t_ladder: not a finite number",
        ),
        (
            "predict",
            "[pde]\nhalf_width = 1e12\nstep = 1e-3\n",
            [],
            "invalid [pde]: half_width / step gives 2000000000000001 nodes, "
            "above the ceiling of 10000000",
        ),
        (
            "predict",
            "[kgrid]\nn_per_sign = 1e12\n",
            [],
            "kgrid.n_per_sign: need an integer in [4, 1000000], got 1000000000000.0",
        ),
        (
            "predict",
            "[tolerances]\npsi_fit_rel = 0.1\n",
            [],
            "unknown config sections: ['tolerances']",
        ),
        (
            "predict",
            "[wedge]\nt_ladder = 1e6, 1e4\n",
            [],
            "wedge.t_ladder must be strictly increasing",
        ),
        ("predict", "[wedge]\nalphas =\n", [], "wedge.alphas: empty list"),
        (
            "predict",
            "[profile]\nk1 = 0.6\n",
            [],
            "cannot parse {ini}: While reading from {ini!r} [line  3]: "
            "section 'profile' already exists",
        ),
    ],
    ids=[
        "kgrid-k-max-inf",
        "pde-half-width-inf",
        "pde-ratio-overflow",
        "match-s-inf",
        "wedge-t-ladder-inf",
        "pde-grid-oversized",
        "kgrid-oversized",
        "tolerances-section",
        "wedge-t-ladder-decreasing",
        "wedge-alphas-blank",
        "profile-section-repeated",
    ],
)
def test_cli_rejects_non_finite_and_blank_values(
    tmp_path, capsys, command, body, extra, message
):
    ini = _write(tmp_path, "[profile]\nkind = synthetic-case-i\n" + body)
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(ini), "--out", str(tmp_path / "out"), *extra])
    assert err.value.code == 2
    assert f"config error: {message.format(ini=ini)}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("kind = synthetic-case-i\nd = -1\n", "invalid [profile]: k1 and d must be positive"),
        (
            "kind = synthetic-case-ii\ncoupling = 1.0\n",
            "invalid [profile]: require k1 > 0, pole > 0, 0 <= coupling < pole",
        ),
        (
            "kind = synthetic-case-ii\npole = 1e-9\n",
            "invalid [profile]: require k1 > 0, pole > 0, 0 <= coupling < pole",
        ),
        (
            "kind = smoothed-step\n[kgrid]\nk_max = 1e8\n",
            "kgrid: the Jost sweep would take 6731658 steps x 800 k nodes = 5.39e+09, "
            "over the budget of 2.5e+08; lower k_max or n_per_sign",
        ),
        # closed-form data that are not finite at the smallest nodes: case I's
        # k**2 underflows below k ~ 1e-154, case II's k1 / k overflows below
        # k ~ 1e-258; the first bad node is named, with no numpy warning
        (
            "kind = synthetic-case-i\n[kgrid]\nk_min = 1e-300\nn_per_sign = 40\n",
            "invalid [profile]: a1 is not finite at k = -2.4244620170823408e-161",
        ),
        (
            "kind = synthetic-case-ii\nk1 = 1e50\npole = 1e50\n"
            "[kgrid]\nk_min = 1e-300\nn_per_sign = 40\n",
            "invalid [profile]: a1 is not finite at k = -5.223345074266982e-262",
        ),
    ],
    ids=[
        "case-i-negative-d",
        "case-ii-coupling-at-pole",
        "case-ii-tiny-pole",
        "sweep-work",
        "case-i-not-finite",
        "case-ii-not-finite",
    ],
)
def test_cli_rejects_bad_profiles_at_load(tmp_path, capsys, body, message):
    # each is refused at load, before any sweep is run or file written
    ini = _write(tmp_path, "[profile]\n" + body)
    with pytest.raises(SystemExit) as err:
        main(["predict", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "amplitude = 1e4\n[kgrid]\nn_per_sign = 40\n",
            "SmallKMismatchError: the k = 0 auxiliary route gives a non-finite a2(0) = nan",
        ),
        (
            "[kgrid]\nn_per_sign = 40\nk_min = 1e-300\n",
            "ScatteringError: scattering coefficients are not finite at k = "
            "-2.4244620170823408e-161",
        ),
    ],
    ids=["amplitude-1e4", "k-min-1e-300"],
)
def test_cli_reports_domain_errors_with_exit_3(tmp_path, capsys, body, message):
    # the config is valid; the scattering stage finds data it cannot treat
    # and names its cause with no numpy RuntimeWarning before it (the suite
    # turns every RuntimeWarning into an error)
    ini = _write(tmp_path, "[profile]\nkind = smoothed-step\n" + body)
    with pytest.raises(SystemExit) as err:
        main(["predict", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert err.value.code == 3
    assert f"error: {message}" in capsys.readouterr().err


# case II data that are finite on a grid down to k_min = 1e-300, through
# which the phase tracker's spline overflows on the smallest intervals
_OVERFLOWING_SPLINE = (
    "[profile]\nkind = synthetic-case-ii\n[kgrid]\nk_min = 1e-300\n[match]\ntime = 1e4\n"
)


def test_cli_names_a_phase_spline_that_overflows(tmp_path, capsys):
    # predict and match end in a named domain error, with no numpy warning
    # and no table written
    ini, out = _write(tmp_path, _OVERFLOWING_SPLINE), tmp_path / "out"
    for command in ("predict", "match"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as err:
                main([command, "--config", str(ini), "--out", str(out)])
        assert err.value.code == 3, command
        assert caught == [], command
        assert capsys.readouterr().err == (
            "error: RefinementRequiredError: phase spline is not finite on "
            "[-1.3268047497146484e-67, -2.3222810962776724e-68]; "
            "the spectral grid's k_min = 1e-300 is too small\n"
        ), command
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "[wedge]\ns_values = 1e300\n",
            "wedge cell alpha=0.5, s=1e+300, t=10000: its fast phase overflows a double",
        ),
        (
            "[wedge]\nalphas = 0.9999\nt_ladder = 1e308\nsides = -x\n",
            "wedge cell alpha=0.9999, s=1, t=1e+308: its fast phase overflows a double",
        ),
        (
            "[match]\ns = 1e200\ntime = 1e4\n",
            "invalid [match]: s = 1e+200 is too large: the fast-phase coefficient 4 s**2 overflows",
        ),
    ],
    ids=["wedge-s-1e300", "wedge-t-1e308", "match-s-1e200"],
)
def test_cli_rejects_overflowing_fast_phases(tmp_path, capsys, body, message):
    # the expanded route cannot evaluate these cells; each used to end in
    # an OverflowError traceback
    ini = _write(tmp_path, "[profile]\nkind = synthetic-case-i\n" + body)
    for command in ("predict", "match"):
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(ini), "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert f"config error: {message}\n" in capsys.readouterr().err


def test_domain_errors_share_one_base():
    from nnlswedge.pde import BoundaryDriftError, FieldBlowUpError
    from nnlswedge.phases import LogSingularityError, RefinementRequiredError
    from nnlswedge.profiles import DomainError, SolitonPoleError
    from nnlswedge.scattering import ScatteringError
    from nnlswedge.specfun import QuadratureError

    for cls, builtin in (
        (ScatteringError, RuntimeError),
        (FieldBlowUpError, RuntimeError),
        (BoundaryDriftError, RuntimeError),
        (LogSingularityError, ArithmeticError),
        (RefinementRequiredError, RuntimeError),
        (SolitonPoleError, ValueError),
        (QuadratureError, RuntimeError),
    ):
        assert issubclass(cls, DomainError) and issubclass(cls, builtin)
    assert not issubclass(ConfigError, DomainError)


def test_sweep_budget_counts_the_layout(tmp_path):
    # the count is the layout's own; the soliton bench config fits the budget
    cfg = load_config(_REPO / "bench" / "configs" / "soliton.ini", out_dir=tmp_path)
    steps = step_count(cfg.profile, cfg.k_grid[-1])
    halves = _step_edges(cfg.profile, cfg.k_grid[-1])
    assert steps == sum(edges.size - 1 for edges in halves) == 12_814
    assert steps * cfg.k_grid.size <= _MAX_SWEEP_WORK


def test_evolution_budget_refuses_a_days_long_compare(tmp_path, capsys):
    # 800,001 nodes x 2e6 steps of the default dt 0.005 = 1.6e12 node-steps,
    # days of stepping: refused before any sweep or step
    body = (
        "[profile]\nkind = smoothed-step\n[wedge]\nt_ladder = 1e4\n"
        "[pde]\nhalf_width = 20000\nstep = 0.05\nt_final = 1e4\n"
    )
    advice = "lower half_width, t_ladder or the grid resolution"
    _assert_refused_at_load(
        tmp_path,
        capsys,
        body,
        "pde: the evolution would take 800001 nodes x 2000000 steps = 1.6e+12, "
        f"over the budget of 1e+09; {advice}",
    )
    # the count honours [pde] dt: the bench soliton at dt = 1e-8
    soliton = (_REPO / "bench" / "configs" / "soliton.ini").read_text(encoding="ascii")
    _assert_refused_at_load(
        tmp_path,
        capsys,
        soliton + "dt = 1e-8\n",
        "pde: the evolution would take 3201 nodes x 350000000 steps = 1.12e+12, "
        f"over the budget of 1e+09; {advice}",
    )


@pytest.mark.parametrize(
    "pde, t_ladder",
    [
        # the tier-1 compare runs
        ("half_width = 16\nstep = 0.05\nt_final = 3\n", "2, 2.5, 3"),
        ("half_width = 16\nstep = 0.05\nt_final = 4\n", "3, 4"),
        ("half_width = 16\nstep = 0.1\nt_final = 3\n", "3"),
        # the bench soliton's grid and ladder: 3,201 nodes x 700 steps
        ("half_width = 40\nstep = 0.025\nt_final = 3.5\n", "1.5, 2, 2.5, 3, 3.5"),
    ],
)
def test_evolution_budget_keeps_the_tier1_and_bench_compares(tmp_path, pde, t_ladder):
    body = (
        "[profile]\nkind = soliton-snapshot\nphase = 3.141592653589793\n"
        f"[wedge]\nalphas = 0.75\nt_ladder = {t_ladder}\n[pde]\n{pde}"
    )
    cfg = load_config(_write(tmp_path, body), out_dir=tmp_path / "out")
    grid, q0, dt = cfg.pde.grid, cfg.pde.q0, cfg.pde.dt
    assert q0.tobytes() == cfg.profile.sample(grid.x).tobytes()
    assert dt == harness.resolve_dt(None, float(np.max(np.abs(q0))))
    steps = math.ceil(cfg.wedge.t_ladder[-1] / dt)
    assert grid.size * steps <= 2.3e6 < _MAX_EVOLVE_WORK


def test_evolution_budget_refuses_every_subcommand(tmp_path, capsys):
    # the budget is checked at load: a [pde] section whose evolution to the
    # default ladder's t = 1e8 would be far over it fails predict too,
    # though predict never evolves
    _assert_refused_at_load(
        tmp_path,
        capsys,
        "[profile]\nkind = smoothed-step\n[wedge]\nalphas = 0.75\n"
        "[pde]\nhalf_width = 40\nt_final = 1e8\n",
        "pde: the evolution would take 4001 nodes x 20000000000 steps = 8e+13, "
        "over the budget of 1e+09; lower half_width, t_ladder or the grid resolution",
    )


def _readme_minimal_config() -> str:
    readme = (_REPO / "README.md").read_text(encoding="utf-8")
    return readme.split("A minimal config:\n\n```ini\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize(
    "name",
    [p.name for p in sorted((_REPO / "bench" / "configs").glob("*.ini"))] + ["README"],
)
def test_shipped_configs_load(tmp_path, name):
    # the benchmark's pinned inputs and the documented example must survive
    # every change to the config rules
    if name == "README":
        path = _write(tmp_path, _readme_minimal_config())
    else:
        path = _REPO / "bench" / "configs" / name
    cfg = load_config(path, out_dir=tmp_path / "out")
    if name == "soliton.ini":
        # the field compare evolves, sampled once at load, and its time step
        q0 = cfg.pde.q0
        assert q0.tobytes() == cfg.profile.sample(cfg.pde.grid.x).tobytes()
        assert cfg.pde.dt == harness.resolve_dt(None, float(np.max(np.abs(q0))))


# an evolving soliton whose compare is cheap: 321 nodes x 600 steps
_SOLITON_COMPARE = (
    "[profile]\nkind = soliton-snapshot\namplitude = 1.0\n"
    "phase = 3.141592653589793\n"
    "[kgrid]\nn_per_sign = 60\n"
    "[wedge]\nalphas = 0.75\nt_ladder = 3\nsides = +x\n"
    "[pde]\nhalf_width = 16.0\nstep = 0.1\nt_final = 3.0\n"
)


@pytest.mark.parametrize(
    "text, commands",
    [
        (
            "[profile]\nkind = synthetic-case-ii\n[wedge]\nalphas = 0.75\nt_ladder = 1e4\n"
            "[match]\nhold_product = 2\n",
            ("scatter", "predict", "match"),
        ),
        (
            _SOLITON_COMPARE + "[match]\nhold_product = 2\n",
            ("scatter", "predict", "compare", "match"),
        ),
    ],
    ids=["synthetic", "soliton"],
)
def test_each_config_object_is_built_once(tmp_path, monkeypatch, text, commands):
    # load_config builds the k grid, the synthetic family's data, the [pde]
    # grid, field and time step and the [match] rungs as it validates them,
    # and no subcommand builds any of them again: compare evolves the field
    # and the step the config holds
    built = collections.Counter()
    evolved = []

    def counted(name, build):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return build(*args, **kwargs)

        return wrapper

    def evolve(q0, grid, t_final, **kwargs):
        evolved.append((q0, grid, kwargs["dt"]))
        return real_evolve(q0, grid, t_final, **kwargs)

    real_evolve = harness.evolve
    monkeypatch.setattr(harness, "evolve", evolve)
    for module, name in (
        (harness, "default_k_grid"),
        (harness, "symmetric_grid"),
        (harness, "matching_ladder"),
        (wedge, "matching_ladder"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for kind, family in harness._SYNTHETIC.items():
        monkeypatch.setitem(harness._SYNTHETIC, kind, counted("synthetic", family))
    ini = _write(tmp_path, text)
    expected = {"default_k_grid": 1, "matching_ladder": 1}
    if "kind = synthetic" in text:
        expected["synthetic"] = 1
    if "[pde]" in text:
        expected["symmetric_grid"] = 1
    for command in commands:
        built.clear()
        evolved.clear()
        cfg = load_config(ini, out_dir=tmp_path / "out")
        getattr(harness, f"cmd_{command}")(cfg)
        assert dict(built) == expected, command
        if command == "compare":
            [(q0, grid, dt)] = evolved
            assert q0 is cfg.pde.q0 and grid is cfg.pde.grid and dt == cfg.pde.dt
        else:
            assert evolved == [], command


def test_cli_compare_announces_all_reports(tmp_path, capsys):
    # every subcommand announces each report it writes, in order, and leaves
    # exactly those files and the spectral cache in a fresh --out directory
    ini = _write(tmp_path, _SOLITON_COMPARE + "[match]\nhold_product = 2\n")
    for command, reports in (
        ("scatter", ["spectra.json"]),
        ("predict", ["predictions.csv"]),
        ("compare", ["comparison.csv", "comparison-summary.txt", "snapshots.csv"]),
        ("match", ["matching.csv"]),
    ):
        out = tmp_path / command
        assert main([command, "--config", str(ini), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in reports)
        assert {path.name for path in out.iterdir()} == {"spectra.json", *reports}, command
    summary = (tmp_path / "compare" / "comparison-summary.txt").read_text(encoding="ascii")
    assert "partial=no" in summary


# ---------------------------------------------------------------------------
# drawn configs: a result or a named error, never a traceback

_EDGE_TOKENS = ("0", "-1", "1e-300", "1e300", "inf", "nan", "x1", "")


def _value_text(default, edge: bool):
    """Text for one config value: near its default, or else an edge case."""
    if isinstance(default, tuple):
        if edge:  # a repeat, a disorder or a bad token
            tokens = ["x", "-x", "+x"] if isinstance(default[0], Side) else _EDGE_TOKENS[:-1]
            return st.lists(st.sampled_from(tokens), min_size=1, max_size=3).map(", ".join)
        if isinstance(default[0], Side):
            return st.sampled_from(["+x", "-x", "+x, -x"])
        values = [f * v for f in (1.0, 0.1, 2.0) for v in default]
        distinct = st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True)
        return distinct.map(lambda vs: ", ".join(map(repr, sorted(vs))))
    if edge:
        return st.sampled_from(_EDGE_TOKENS)
    base = 1.0 if default is None else default
    return st.sampled_from([repr(f * base) for f in (1.0, 0.1, 2.0)])


@st.composite
def _config_text(draw):
    """A cheap valid config of a drawn kind with up to two keys per section
    redrawn from _CONFIG_KEYS; about one value in six is an edge case."""
    kinds = [k.value for k in ProfileKind] + ["synthetic-case-i", "synthetic-case-ii"]
    kind = draw(st.sampled_from(kinds))
    family = kind if kind.startswith("synthetic") else "sampled"
    sections = {"profile": {"kind": kind}, "match": {"time": "1e4"}}
    if family == "sampled":
        sections["profile"]["phase"] = "3.0"  # a soliton at phase 0 has a pole
        sections["kgrid"] = {"n_per_sign": "40"}
        if draw(st.booleans()):
            # a ladder on a coarse grid, which compare can evolve within
            # _GATE_EVOLVE_WORK unless a redraw below moves it
            t_ladder = draw(st.sampled_from(["1.5", "1, 2", "2.5"]))
            sections["wedge"] = {"t_ladder": t_ladder}
            sections["pde"] = {"half_width": "16", "step": "0.1"}
    for name, keys in {**_CONFIG_KEYS, "profile": _CONFIG_KEYS["profile"][family]}.items():
        section = sections.setdefault(name, {})
        if name == "pde":
            if not section:
                continue  # only a cheap ladder above comes with a [pde] section
            # t_final at the end of the drawn ladder, unless that is no list
            # of numbers: an earlier t_final is refused at load
            try:
                end = max(map(float, sections["wedge"]["t_ladder"].replace(",", " ").split()))
                section["t_final"] = repr(end)
            except ValueError:
                pass
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=2)):
            edge = draw(st.sampled_from([False] * 5 + [True]))
            if name == "pde" and key == "t_final" and not edge:
                continue  # kept at the ladder's end
            section[key] = draw(_value_text(keys[key], edge))
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
        if keys
    )


# the case I config of test_cli_rejects_bad_profiles_at_load whose data are
# not finite on its grid: a config error on every subcommand
_OVERFLOWING_SYNTHETIC = (
    "[profile]\nkind = synthetic-case-i\n[kgrid]\nk_min = 1e-300\nn_per_sign = 40\n"
)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# a compare the config gate runs only up to this many node-steps of evolution
_GATE_EVOLVE_WORK = 1e6


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_config_text())
@example(_ZERO_MIRROR_MATCH)
@example(_OVERFLOWING_SYNTHETIC)
@example(_OVERFLOWING_SPLINE)
@example(_SOLITON_COMPARE)
def test_drawn_configs_end_in_a_result_or_a_named_error(text):
    # every draw loads, or is a ConfigError that every subcommand reports
    # with exit code 2; a cheap one (a synthetic family, or a sampled kind
    # with n_per_sign <= 60, radius <= 40 and k_max <= 100) runs predict and
    # match to exit code 0, 2 (config) or 3 (domain error), and compare too:
    # to exit code 2 without a [pde] section, and like the others where
    # the evolution takes no more than _GATE_EVOLVE_WORK node-steps
    _check_drawn_config(text)


@functools.cache
def _check_drawn_config(text):
    """The gate's checks on one config text; the draws repeat some texts,
    and a text that passed is not run again (a failure is not cached)."""
    with tempfile.TemporaryDirectory() as tmp:
        ini, out = _write(Path(tmp), text), Path(tmp) / "out"
        argv = ["--config", str(ini), "--out", str(out)]
        try:
            cfg = load_config(ini, out_dir=out)
        except ConfigError:
            for command in ("scatter", "predict", "compare", "match"):
                assert _exit_code([command, *argv]) == 2, text
            return
        profile = cfg.profile
        if profile is not None and not (
            cfg.k_grid.size <= 120 and profile.radius <= 40 and cfg.k_grid[-1] <= 100
        ):
            return
        for command in ("predict", "match"):
            assert _exit_code([command, *argv]) in (0, 2, 3), text
        pde = cfg.pde
        if pde is None:
            assert _exit_code(["compare", *argv]) == 2, text
        elif pde.grid.size * math.ceil(cfg.wedge.t_ladder[-1] / pde.dt) <= _GATE_EVOLVE_WORK:
            assert _exit_code(["compare", *argv]) in (0, 2, 3), text
