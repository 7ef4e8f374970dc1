"""The traced benchmark finds the functions it wraps.

perfbench's traced run looks tlabel's functions up from outside, by module
attribute and class ``__dict__`` entry, and reports a per-layer metric
whose lookup sites have all vanished as absent.  A rename or a fold in the
package that a traced run would only show as a missing metric fails here.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_per_layer_metric_has_a_lookup_site():
    tracer = Tracer(layers.targets())
    tracer.install()
    tracer.uninstall()
    _, absent = layers.per_layer_metrics(tracer, layers.Counters(), 1, 0.0)
    assert absent == []
