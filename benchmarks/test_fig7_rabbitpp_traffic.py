"""Figure 7: DRAM-traffic reduction of RABBIT++ over RABBIT.

Shape expectations: RABBIT++ at least matches RABBIT on average, with
the gains concentrated on low-insularity matrices (paper: 7.7% mean
there, up to 1.56x).  Both hold on the ``test`` profile, so
``tests/test_paper_claims.py`` asserts them in tier-1; this benchmark
only regenerates the figure.
"""

from conftest import PROFILE, emit

from repro.experiments import fig7


def test_fig7_rabbitpp_traffic(benchmark, bench_runner):
    report = benchmark.pedantic(
        lambda: fig7.run(profile=PROFILE, runner=bench_runner, split=0.7),
        rounds=1,
        iterations=1,
    )
    emit(report)
