"""Figure 3: RABBIT run time vs. insularity.

Shape expectation: high-insularity matrices land much closer to ideal
than low-insularity ones (paper: 1.26x vs 1.81x).  It holds on the
``test`` profile, so ``tests/test_paper_claims.py`` asserts it in
tier-1; this benchmark only regenerates the figure.
"""

from conftest import PROFILE, emit

from repro.experiments import fig3


def test_fig3_insularity(benchmark, bench_runner):
    report = benchmark.pedantic(
        lambda: fig3.run(profile=PROFILE, runner=bench_runner, split=0.7),
        rounds=1,
        iterations=1,
    )
    emit(report)
