"""Figure 8: LRU vs. Belady DRAM traffic per ordering.

Shape expectations: Belady always at or below LRU, and the gap shrinks
as the ordering improves, smallest for RABBIT++ (paper: 7.6%).  Both
hold on the ``test`` profile, so ``tests/test_paper_claims.py`` asserts
them in tier-1; this benchmark only regenerates the figure.
"""

from conftest import PROFILE, emit

from repro.experiments import fig8


def test_fig8_belady_headroom(benchmark, bench_runner):
    report = benchmark.pedantic(
        lambda: fig8.run(profile=PROFILE, runner=bench_runner),
        rounds=1,
        iterations=1,
    )
    emit(report)
