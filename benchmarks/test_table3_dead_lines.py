"""Table III: average dead-line percentage per ordering.

Shape expectations: RANDOM wastes by far the most cache capacity;
RABBIT++ the least (paper: 63.3% vs 16.4%).  Both hold on the
``test`` profile, so ``tests/test_paper_claims.py`` asserts them in
tier-1; this benchmark only regenerates the table.
"""

from conftest import PROFILE, emit

from repro.experiments import table3


def test_table3_dead_lines(benchmark, bench_runner):
    report = benchmark.pedantic(
        lambda: table3.run(profile=PROFILE, runner=bench_runner),
        rounds=1,
        iterations=1,
    )
    emit(report)
