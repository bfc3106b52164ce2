"""The benchmark's traced run wraps program names by module and name.

`perfbench/tracing.py` replaces each (module, name) it lists with a
timing wrapper, so a refactor that drops one of those names breaks
`perfbench/run.py --trace 1` without failing any other test.
"""

import importlib.util
from pathlib import Path

from ifmsim import cli, dsl, fock, interferometer, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets((cli, dsl, fock, interferometer, verify))
    places = [place for wrapped, _ in targets.values() for place in wrapped]
    missing = [f"{module.__name__}.{name}" for module, name in places
               if not callable(getattr(module, name, None))]
    assert places and missing == []
