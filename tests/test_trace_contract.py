"""The traced benchmark's contract with the package.

`perfbench/child.py` names the functions it traces (`TARGETS`) and calls a
probe with each call's own arguments for three of them (`_probes`).  Most of
these tests read child.py, without running it, and check that every name
still resolves and that each probe and its function take the same positional
arguments; the last runs one traced repetition of `sweep` and of `verify`.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


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


@pytest.mark.parametrize(
    "cli_args, probed",
    [
        # a record counts its shift profiles at the quotient points, not
        # through shift_sizes; verify's energy family still calls it
        (["sweep", "--pmax", "13", "--out", "r.csv"], {"zpsets.sumset"}),
        (["verify", "--pmax", "13"], {"zpsets.sumset", "energetics.shift_sizes"}),
    ],
    ids=["sweep", "verify"],
)
def test_traced_repetition_runs_with_probed_spans(tmp_path, cli_args, probed):
    # a probe that no longer fits its function's call fails every traced
    # repetition, which the signature checks above cannot see for a call
    # made with other arguments than the probe takes
    spans = tmp_path / "spans.json"
    cmd = [sys.executable, "-E", "-s", str(CHILD), repr(time.monotonic()), str(ROOT), str(spans)]
    proc = subprocess.run(cmd + cli_args, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["rc"] == 0
    names = {span[1] for span in json.loads(spans.read_text())["spans"]}
    assert probed <= names, sorted(names)
