"""The names the benchmark in ``perfbench/`` patches or calls must keep existing.

``perfbench/layertrace.py`` and ``perfbench/workloads.py`` replace functions
through ``owner.__dict__[name]`` (``reproduce.make_field``,
``cli.is_permutation``, ``oracle.permutes_subset``, ``FieldCtx.ensure_tables``,
``SparsePoly.eval_rep`` and more).  A deletion or rename that drops one breaks
only the benchmark's runs, so each wrapper set is installed and removed here.
"""

import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from layertrace import CallCounter, SpanTracer  # noqa: E402
from workloads import VerdictClock  # noqa: E402

from permpoly import cli, families, field, oracle, reproduce, solvers  # noqa: E402


def _snapshot():
    owners = (cli, families, field, oracle, reproduce, solvers,
              field.FieldCtx, field.SparsePoly)
    return [dict(vars(o)) for o in owners] + [dict(reproduce.CRITERIA)]


@pytest.mark.parametrize("wrappers", [SpanTracer, CallCounter, VerdictClock])
def test_patch_points_exist_and_restore(wrappers):
    before = _snapshot()
    w = wrappers()
    try:
        w.install()
    finally:
        w.uninstall()
    assert _snapshot() == before


def test_run_all_signature():
    inspect.signature(reproduce.run_all).bind(workers=1, only=(3,))
