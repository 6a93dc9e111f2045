"""Shared helper for the benchmark harness.

Each ``bench_fig*`` / ``bench_table*`` module regenerates one table or figure
of the paper via the experiment functions in
:mod:`repro.analysis.experiments`, times it with pytest-benchmark, and
asserts the qualitative claims the paper makes about that table/figure (who
wins, by roughly what factor).  ``bench_pairs.py`` rides the same harness for
the few software speed ratios the repo benchmark (``benchmarks/e2e``) does
not report.
"""


def result_by(result, key_column, key_value):
    """Find a row in an ExperimentResult by the value of one column."""
    row = result.find_row(key_column, key_value)
    assert row is not None, f"missing row {key_value!r} in {result.experiment_id}"
    return row
