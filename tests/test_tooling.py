"""Guards for the tooling that reaches into the package from outside."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_layers_resolve_on_package():
    # the benchmark tracer wraps these names by string; a refactor that
    # renames or deletes one must fail here rather than in a traced run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, names in tracer.LAYERS.items():
        module = importlib.import_module(f"cgmkit.{module_name}")
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            scope = vars(getattr(module, owner, object)) if owner else vars(module)
            if not callable(scope.get(attr)):
                missing.append(f"{module_name}.{qualname}")
    assert not missing, f"bench/tracer.py LAYERS names missing: {missing}"
