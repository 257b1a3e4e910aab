"""The benchmark harness times swapval's layers by function name
(``perfbench/tracing.py``, ``LAYERS``), so renaming one breaks the benchmark."""

import importlib
import importlib.util
import os

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def test_every_traced_name_resolves_in_its_layer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"swapval.{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"swapval.{layer}"), name, None))]
    assert tracing.LAYERS and not missing, missing
