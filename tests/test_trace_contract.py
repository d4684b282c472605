"""The traced benchmark's contract with the package.

`perfbench/child.py` names the functions it traces (`TARGETS`) and calls a
probe with each call's own arguments for three of them (`_probes`).  The
tier-1 suite never runs a traced benchmark, so these tests read child.py,
without running it, and check that every name still resolves and that each
probe and its function take the same positional arguments.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions only; main() is not run
    return module


def _resolve(qualname):
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(f"subgroup_lab.{module}"), name)


def test_every_target_resolves(child):
    names = [f"{mod}.{fn}" for mod, fns in child.TARGETS.items() for fn in fns]
    assert names
    for qualname in names:
        assert callable(_resolve(qualname)), qualname


def test_every_probed_function_takes_its_probe_arguments(child):
    probes = child._probes(lambda a: "")
    assert probes
    for qualname, probe in probes.items():
        params = inspect.signature(probe).parameters
        args = [object()] * len(params)
        inspect.signature(_resolve(qualname)).bind(*args)  # raises TypeError if not


def test_every_probe_takes_every_positional_argument_of_its_function(child):
    # the probe sees each call's own arguments, so a parameter the function
    # gains (an optional one too) must be one its probe accepts as well
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for qualname, probe in child._probes(lambda a: "").items():
        params = inspect.signature(_resolve(qualname)).parameters.values()
        args = [object()] * sum(p.kind in positional for p in params)
        inspect.signature(probe).bind(*args)  # raises TypeError if not
