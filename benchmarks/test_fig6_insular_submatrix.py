"""Figure 6: DRAM traffic of the insular sub-matrix.

Shape expectation: once insular nodes are grouped, the insular portion
of every matrix achieves near-compulsory traffic (paper plots values
hugging 1.0).  It holds on the ``test`` profile, so
``tests/test_paper_claims.py`` asserts it in tier-1; this benchmark
only regenerates the figure.
"""

from conftest import PROFILE, emit

from repro.experiments import fig6


def test_fig6_insular_submatrix(benchmark, bench_runner):
    report = benchmark.pedantic(
        lambda: fig6.run(profile=PROFILE, runner=bench_runner),
        rounds=1,
        iterations=1,
    )
    emit(report)
