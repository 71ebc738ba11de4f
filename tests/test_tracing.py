"""The benchmark's span tracer must keep working against the package.

``bench/spans.py`` wraps the public functions of every layer and the
``PhaseTracker`` methods it lists by name, so a renamed method or a moved
function would break traced benchmark runs without this check.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from nnlswedge import harness, pde, scattering, wedge

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_round_trip_over_one_exact_cell():
    modules = [importlib.import_module(f"nnlswedge.{layer}") for layer in spans.LAYERS]
    module_vars = [dict(vars(mod)) for mod in modules]
    methods = {}
    for (layer, cls_name), names in spans._METHODS.items():
        cls = getattr(importlib.import_module(f"nnlswedge.{layer}"), cls_name)
        methods.update({(cls, attr): cls.__dict__[attr] for attr in names})

    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        sd = scattering.synthetic_case_i()
        wedge.gen_as_predict(sd, wedge.wedge_point(0.5, 1.0, 1.0e4))
    finally:
        tracer.uninstall()

    names = {span[1] for span in tracer.spans}
    assert "phases.PhaseTracker.chi_hat" in names
    assert "wedge.gen_as_predict" in names
    for mod, before in zip(modules, module_vars):
        after = vars(mod)
        assert [k for k, v in before.items() if after.get(k) is not v] == [], mod.__name__
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"


def test_traced_compare_records_the_evolution(tmp_path):
    # the span wrapper of pde.evolve reads the dt compare passes; on this
    # config the run aborts between the ladder times 3 and 4, so the tracer
    # also records the abort time and the steps taken up to it
    ini = tmp_path / "soliton.ini"
    ini.write_text(
        "[profile]\nkind = soliton-snapshot\nphase = 3.141592653589793\n"
        "[kgrid]\nn_per_sign = 60\n"
        "[wedge]\nalphas = 0.75\nt_ladder = 3, 4\nsides = +x\n"
        "[pde]\nhalf_width = 16.0\nstep = 0.05\nt_final = 4.0\n",
        encoding="ascii",
    )
    cfg = harness.load_config(ini, out_dir=tmp_path / "out")
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        _, summary, _ = harness.cmd_compare(cfg)
    finally:
        tracer.uninstall()

    lines = summary.read_text(encoding="ascii").splitlines()
    fields = dict(line.split("=", 1) for line in lines if not line.startswith("#"))
    assert fields["partial"] == "yes"
    abort_t = float(re.search(r"at t=([-+0-9.eE]+)", fields["abort_reason"]).group(1))
    assert tracer.values["pde.nodes"] == 641
    assert tracer.values["pde.abort_t"] == abort_t
    assert tracer.counts["pde.steps"] == int(fields["steps"]) == round(abort_t / pde.DEFAULT_DT)
