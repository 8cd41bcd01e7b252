"""Table II: the RABBIT-modification design space.

Shape expectations vs. the paper: insular grouping helps (columns),
HUBSORT hurts relative to HUBGROUP (rows), and the full RABBIT++
(HUBGROUP + insular) is the best ALL-matrices cell.  These checks stay
here, not in tier-1: the HUBSORT regression reverses on the ``test``
profile (without insular grouping, RABBIT+HUBSORT 1.817 against
RABBIT 1.963).
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
    summary = report.summary
    # Insular grouping never hurts the ALL mean for the RABBIT row.
    assert (
        summary["RABBIT|with-insular|all"]
        <= summary["RABBIT|without-insular|all"] + 0.02
    )
    # HUBGROUP beats HUBSORT (hub community structure preserved).
    assert (
        summary["RABBIT+HUBGROUP|with-insular|all"]
        <= summary["RABBIT+HUBSORT|with-insular|all"] + 0.02
    )
    # The paper's RABBIT++ cell is the best (or ties within noise).
    best = min(value for key, value in summary.items() if key.endswith("|all"))
    assert summary["RABBIT+HUBGROUP|with-insular|all"] <= best + 0.05
