"""CPython 3.12's builtin ``sum()`` on any interpreter, for this repository's code.

CPython 3.12 changed ``sum()`` over floats: exact ``float`` items are added
with Neumaier compensation, so a float sum can differ from the plain left
fold CPython 3.11 computes in its last bits.  A pinned golden that flows
through ``sum()`` then depends on the interpreter.  Put this directory on
``PYTHONPATH`` behind ``src``::

    PYTHONPATH=src:tests/float_order python -m pytest -x -q

and the interpreter imports this module at startup (``site`` runs
``sitecustomize``), after which every ``sum()`` *called from code under
``src/repro`` or ``tests``* follows 3.12's algorithm (:func:`sum312`).
Other callers keep the interpreter's own ``sum()``: the standard library,
third-party packages, and the benchmark harness under ``benchmarks/``.
A suite that passes both plainly and under this module computes the same
floats on 3.11 and 3.12.
"""

from __future__ import annotations

import builtins
import math
import os
import sys

_builtin_sum = builtins.sum

#: ``long`` range of the C fast paths (``PyLong_AsLongAndOverflow``)
_LONG_MIN = -(2**63)
_LONG_MAX = 2**63 - 1


def sum312(iterable, /, start=0):
    """``builtin_sum_impl`` of CPython 3.12 (``Python/bltinmodule.c``).

    * While the running result is an exact ``int``, ``int``/``bool`` items
      add exactly.
    * Once it is an exact ``float``, exact ``float`` items add with Neumaier
      compensation and ``int`` items (within a C ``long``) add plainly.  The
      compensation is folded in when the items end, or when an item of any
      other type arrives (e.g. ``np.float64``, a ``float`` subclass).
    * From such an item on, every add is a plain ``result + item``.
    """
    if isinstance(start, (str, bytes, bytearray)):
        return _builtin_sum(iterable, start)  # the builtin's TypeError
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                if _LONG_MIN <= item <= _LONG_MAX and _LONG_MIN <= result + item <= _LONG_MAX:
                    result += item
                    continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total = result
        compensation = 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCOPE = tuple(
    os.path.join(_REPO, *parts) + os.sep for parts in (("src", "repro"), ("tests",))
)
#: code object -> whether its ``sum()`` calls are emulated
_scoped: dict = {}


def _sum(iterable, /, start=0):
    code = sys._getframe(1).f_code
    scoped = _scoped.get(code)
    if scoped is None:
        scoped = _scoped[code] = os.path.abspath(code.co_filename).startswith(_SCOPE)
    return (sum312 if scoped else _builtin_sum)(iterable, start)


if __name__ == "sitecustomize":
    builtins.sum = _sum
