"""The float order of ``sum()``: CPython 3.12's algorithm, checked on any interpreter.

``tests/float_order/sitecustomize.py`` emulates CPython 3.12's builtin
``sum()`` for this repository's code; these tests pin the emulation to the
3.12 results it must reproduce (and, on 3.12 and later, to the interpreter
itself) and run a property suite with exact float oracles under it.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

TESTS = Path(__file__).resolve().parent
EMULATION = TESTS / "float_order"


def _emulation():
    """The emulation module: the installed one, or a copy that installs nothing."""
    installed = sys.modules.get("sitecustomize")
    if installed is not None and hasattr(installed, "sum312"):
        return installed
    spec = importlib.util.spec_from_file_location(
        "float_order_sitecustomize", EMULATION / "sitecustomize.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EMULATED = _emulation()


@pytest.mark.parametrize(
    ("items", "start", "expected"),
    [
        ([1e16, 1.0, -1e16], 0, 1.0),  # compensation keeps the lost 1.0
        ([0.1] * 10, 0, 1.0),  # a plain fold gives 0.9999999999999999
        ([-0.0, -0.0], -0.0, -0.0),  # a zero compensation keeps the sign
        ([1e16, np.float64(1.0), -1e16], 0, np.float64(0.0)),  # ends the fast path
        ([1, 2, True], 0, 4),  # ints stay exact ints
        ([1e308, 1e308, -1e308], 0.0, float("inf")),  # overflow stays infinite
    ],
)
def test_sum312_reproduces_the_312_results(items, start, expected):
    result = EMULATED.sum312(items, start)
    assert result == expected and type(result) is type(expected)
    assert str(result) == str(expected)  # the sign of a zero included


def test_sum312_refuses_strings_like_the_builtin():
    with pytest.raises(TypeError, match="can't sum strings"):
        EMULATED.sum312(["a"], "")


#: what this repository sums: floats, and numpy scalars among them
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@pytest.mark.skipif(sys.version_info < (3, 12), reason="the interpreter's sum() is 3.12's")
@given(items=st.lists(numbers, max_size=12), start=st.sampled_from((0, 0.0)))
def test_sum312_is_the_interpreters_sum(items, start):
    assert repr(EMULATED.sum312(items, start)) == repr(EMULATED._builtin_sum(items, start))


def test_sharding_properties_pass_under_the_312_sum():
    """The shard plane's exact oracles hold under 3.12's ``sum()`` (seeded)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(EMULATION)]))
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "--hypothesis-seed=0",
            str(TESTS / "hw" / "test_sharding_properties.py"),
        ],
        cwd=TESTS.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
