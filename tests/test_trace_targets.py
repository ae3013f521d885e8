"""The layer tracer of the benchmark names library functions by path, so a
function that moves or is renamed must take its trace target along. This
reads the targets from `perfbench/tracing.py` and resolves each one the
way the tracer installs it, without running the benchmark."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(name, mod, path) for name, targets in tracing.TARGETS.items()
            for mod, path in targets]


def test_every_trace_target_resolves_in_spanalg():
    targets = _targets()
    assert targets
    for name, mod, path in targets:
        owner = importlib.import_module(f"spanalg.{mod}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        # the tracer replaces the attribute where it is defined
        assert attr in vars(owner), (name, mod, path)
        assert callable(vars(owner)[attr]), (name, mod, path)
