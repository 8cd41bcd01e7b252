"""Table II: the RABBIT-modification design space.

Shape expectations vs. the paper: insular grouping helps (columns),
HUBSORT hurts relative to HUBGROUP (rows), and the full RABBIT++
(HUBGROUP + insular) is the best ALL-matrices cell.  They hold on the
``bench`` profile (the HUBSORT regression reverses on ``test``), so
``tests/test_paper_claims.py`` asserts them in tier-1 on ``bench``;
this benchmark only regenerates the table.
"""

from conftest import PROFILE, emit

from repro.experiments import table2

SPLIT = 0.7


def test_table2_design_space(benchmark, bench_runner):
    report = benchmark.pedantic(
        lambda: table2.run(profile=PROFILE, runner=bench_runner, split=SPLIT),
        rounds=1,
        iterations=1,
    )
    emit(report)
