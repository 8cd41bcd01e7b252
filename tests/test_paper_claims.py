"""The paper's claims, asserted in tier-1 on the ``test`` profile.

Each test regenerates one figure or table into a fresh memo directory
(Fig. 8 and Table III together take about a second from a cold memo)
and asserts the shape the paper reports.  ``benchmarks/`` regenerates
the same artifacts on the ``bench`` profile without asserting them
again, so each claim is written down once.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig8, table3
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    memo = tmp_path_factory.mktemp("claims-memo")
    return ExperimentRunner(profile="test", cache_dir=str(memo))


def test_fig8_rabbitpp_has_smallest_belady_gap(runner):
    """Fig. 8: Belady never moves more traffic than LRU, and RABBIT++
    leaves the least headroom — the smallest LRU/Belady gap."""
    gaps = fig8.run(profile="test", runner=runner).summary
    for key, gap in gaps.items():
        assert gap >= 1.0 - 1e-9, key
    assert gaps["lru_over_belady_rabbit++"] == min(gaps.values())


def test_table3_random_most_dead_rabbitpp_fewest(runner):
    """Table III: RANDOM leaves the most dead lines, and RABBIT++ no
    more than RABBIT and well below RANDOM."""
    dead = table3.run(profile="test", runner=runner).summary
    assert dead["dead_fraction_random"] == max(dead.values())
    assert dead["dead_fraction_rabbit++"] <= dead["dead_fraction_rabbit"]
    assert dead["dead_fraction_rabbit++"] < dead["dead_fraction_random"] / 1.5
