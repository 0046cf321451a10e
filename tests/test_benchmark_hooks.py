"""The benchmark's tracer rebinds program names by module and attribute; a
refactor that drops or renames one of them breaks the traced run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
N_HOOKS = 17


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves_and_unwraps():
    tracing = load_tracing()
    tracer = tracing.Tracer(enabled=False)
    try:
        tracing.instrument_program(tracer)  # getattr raises for a name that is gone
        hooks = list(tracer._originals)
        assert len(hooks) == N_HOOKS
        for module, attr, original in hooks:
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.unwrap_all()
    for module, attr, original in hooks:
        assert getattr(module, attr) is original
