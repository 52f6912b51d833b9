"""The CSV and summary text against the f-string formatters they replaced.

``SweepResult.to_csv_text`` and ``summary_csv_text`` format each line from one
``%`` template, and ``box_stats`` takes the samples within its fences as a
slice.  The reference formatters below are the per-cell f-strings and the
list scan they replaced, kept as the oracle: the golden files cover only the
reduced grids, so these draw rows of any shape a result can hold.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coexsim.experiments import CSV_METRIC_COLUMNS, SweepResult
from coexsim.metrics import RunMetrics, _quartile, box_stats

AXES = ["lte.duty", "lte.tx_power_dbm", "wifi.mcs_mbps", "wifi.cca_profile",
        "radio.soft_slope_k"]
CELLS = ["0.0", "0.5", "-16.0", "54", "vendor-A"]
COUNTS = st.integers(0, 2**63)
FLOATS = st.floats(0.0, 1e300)


def reference_csv_text(result: SweepResult) -> str:
    lines = [",".join(result.header())]
    for row in result.rows:
        cells = [row["scenario"], *[row[a] for a in result.axis_names],
                 str(row["rep"]), str(row["seed"])]
        for col in CSV_METRIC_COLUMNS:
            value = row[col]
            cells.append(f"{value:.6f}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_box_stats(samples: list[float]) -> tuple:
    ordered = sorted(float(s) for s in samples)
    q25, median, q75 = (_quartile(ordered, q) for q in (0.25, 0.50, 0.75))
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = [s for s in ordered if lo_fence <= s <= hi_fence]
    outliers = [s for s in ordered if s < lo_fence or s > hi_fence]
    return median, q25, q75, inside[0], inside[-1], outliers


def reference_summary_csv_text(result: SweepResult) -> str:
    header = ["scenario", *result.axis_names, "n"]
    for prefix in ("thr", "norm"):
        header += [f"{prefix}_{s}" for s in
                   ("median", "q25", "q75", "whisker_lo", "whisker_hi", "outliers")]
    lines = [",".join(header)]
    for _, group in itertools.groupby(
            result.rows, key=lambda r: tuple(r[a] for a in result.axis_names)):
        group = list(group)
        cells = [group[0]["scenario"], *[group[0][a] for a in result.axis_names],
                 str(len(group))]
        for col in ("throughput_mbps", "normalized"):
            *values, outliers = reference_box_stats([r[col] for r in group])
            cells += [f"{value:.6f}" for value in values] + [str(len(outliers))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@st.composite
def results(draw, normalized=FLOATS | st.just("")):
    """A result whose rows come from ``add``, as a sweep or ``coexsim run`` writes
    them, or are set cell by cell to any count and any float up to 1e300.  A
    point's rows are consecutive, as a sweep adds them, and may repeat later."""
    axes = draw(st.lists(st.sampled_from(AXES), unique=True, max_size=3))
    result = SweepResult(draw(st.sampled_from(["duty", "run"])), axes)
    for _ in range(draw(st.integers(0, 6))):
        cells = {axis: draw(st.sampled_from(CELLS)) for axis in axes}
        for rep in range(draw(st.integers(1, 6))):
            seed, value = draw(COUNTS), draw(normalized)
            if draw(st.booleans()):
                duration = draw(st.integers(1, 2**63))
                metrics = RunMetrics(*[draw(COUNTS) for _ in range(6)], duration)
                result.add(cells, rep, seed, metrics, value)
            else:
                result.add(cells, rep, seed, RunMetrics(0, 0, 0, 0, 0, 0, 1), value)
                result.rows[-1].update(
                    throughput_mbps=draw(FLOATS), wifi_airtime_frac=draw(FLOATS),
                    lte_airtime_frac=draw(FLOATS), attempts=draw(COUNTS),
                    failures=draw(COUNTS), drops=draw(COUNTS))
    return result


@settings(max_examples=100, deadline=None)
@given(result=results())
def test_csv_text_is_the_reference_text(result):
    assert result.to_csv_text() == reference_csv_text(result)


@settings(max_examples=100, deadline=None)
@given(result=results(normalized=FLOATS))
def test_summary_text_is_the_reference_text(result):
    assert result.summary_csv_text() == reference_summary_csv_text(result)


def test_a_run_row_prints_an_empty_normalized_cell():
    result = SweepResult("run", [])
    result.add({}, 0, 2**63, RunMetrics(1500, 2, 1, 0, 300, 100, 1000), normalized="")
    assert result.to_csv_text().splitlines()[1] == (
        f"run,0,{2**63},12000.000000,,0.300000,0.100000,2,1,0")


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(st.floats(-1e300, 1e300) | st.integers(-2**63, 2**63), min_size=1,
                        max_size=12))
@example(samples=[1, 2, 3, 4, 100])
@example(samples=[2.5] * 6)
@example(samples=[1, 2, 2, 2, 3])  # samples on both fences are inside
def test_box_stats_is_the_list_scan(samples):
    assert tuple(box_stats(samples)) == reference_box_stats(samples)
