"""The benchmark's layer trace wraps obslab functions by name; a rename that
would silently drop a layer from the trace fails here instead."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    for name, module_name, functions in _load_layertrace().LAYERS:
        home = importlib.import_module(module_name)
        for fn in functions:
            assert callable(getattr(home, fn, None)), f"{name}: {module_name}.{fn}"
    # the sweep workload reads the eigen cache's hit and miss counts
    from obslab import spectral
    assert callable(spectral.decompose_hamiltonian.cache_info)
