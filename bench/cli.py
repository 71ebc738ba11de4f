"""Run one ``nnlswedge`` CLI command in this fresh interpreter.

    python3 bench/cli.py [--trace-out FILE --run-id ID] -- scatter --config ...

Untraced, this is exactly the ``nnlswedge`` console script: import
``nnlswedge.harness`` and call ``main``.  With ``--trace-out`` the layers'
public functions are wrapped after the import (see ``spans.py``) and the
spans are written to FILE when the command returns.  The package must come
from the ``src/`` directory next to this benchmark, never from elsewhere.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    trace_out = run_id = None
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace-out":
            trace_out = value
        elif flag == "--run-id":
            run_id = value
        else:
            raise SystemExit(f"unknown option {flag}")
    argv = argv[1:]

    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import nnlswedge.harness as harness

    import_s = time.perf_counter() - import_start

    if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"nnlswedge was imported from {harness.__file__}, not {ROOT / 'src'}")
    if trace_out is None:
        return harness.main(argv)

    from spans import Tracer

    tracer = Tracer(run_id or "cli")
    tracer.values["harness.import_in_op_s"] = import_s
    tracer.install()
    try:
        return harness.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
