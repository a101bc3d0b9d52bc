"""Every ``stabilize`` call is audited exactly once, and nothing else is.

A traced benchmark run counts ``engine.stabilize`` calls through wrappers
set by identity in every ``sandlab`` module that binds the function, and
checks that the audit counter of ``engine_stats`` grew by as many.  These
tests pin that invariant without the benchmark: a kernel that audits
outside ``stabilize``, or a search that stabilizes without it, breaks them.
"""

import sys

import numpy as np
import pytest

from sandlab import engine, epicenter, estimators
from sandlab.engine import engine_stats, flood_count, tcl_single_site
from sandlab.epicenter import BoundParams
from sandlab.graph_core import grid_sandpile


@pytest.fixture
def stabilize_calls(monkeypatch):
    """Wrap ``engine.stabilize`` wherever a sandlab module binds it; yields
    the number of dimensions of each call's configuration."""
    real = engine.stabilize
    dims = []

    def counted(g, counts, *args, **kwargs):
        dims.append(np.ndim(counts))
        return real(g, counts, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sandlab" or name.startswith("sandlab."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return dims


def _propagate(g):
    return epicenter.propagate(g, g.vertex_at(1, 1), g.vertex_at(15, 15),
                               BoundParams.grid_defaults())


@pytest.mark.parametrize("run", [
    lambda: flood_count(grid_sandpile(12), 30, [100, 143]),
    lambda: tcl_single_site(grid_sandpile(12), 0),
    lambda: estimators.estimate_op("grid", [12], 3, 5),
    lambda: _propagate(grid_sandpile(17)),
], ids=["flood_count", "tcl_single_site", "estimate_op", "propagate"])
def test_every_stabilize_call_is_audited_once(stabilize_calls, run):
    before = engine_stats()["identity_checks"]
    run()
    assert stabilize_calls, "the run made no stabilize call"
    assert engine_stats()["identity_checks"] - before == len(stabilize_calls)
    assert set(stabilize_calls) == {1}
