"""Every callable that perfbench/tracer.py wraps still resolves.

The tracer replaces attributes of confalg's modules and classes by name, so
deleting or renaming one breaks ``perfbench/run.py --trace 1``; this pins the
names from the package side.
"""

import importlib.util
import inspect
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.trace_points()


def test_every_trace_point_resolves():
    points = _trace_points()
    assert points
    for owner, attr, name in points:
        if inspect.isclass(owner):
            # the tracer patches the class dict, not an inherited attribute
            assert attr in vars(owner), (owner.__qualname__, attr, name)
            value = vars(owner)[attr]
        else:
            assert hasattr(owner, attr), (owner.__name__, attr, name)
            value = getattr(owner, attr)
        assert callable(value), (attr, name)
