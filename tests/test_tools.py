import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from cpessim.metrics import TimeSeries

_SPEC = importlib.util.spec_from_file_location(
    "trace_diff", Path(__file__).resolve().parents[1] / "tools" / "trace_diff.py")
trace_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_diff)


def write_tree(root: Path, traces: dict[str, list[float]]) -> Path:
    for name, values in traces.items():
        path = root / "case" / "seed1" / "traces" / f"{name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        series = TimeSeries(t=np.arange(len(values)) * 0.5, v=np.array(values), unit="pu",
                            name=name)
        path.write_text(series.to_csv())
    return root


def compare(a: Path, b: Path) -> tuple[int, str]:
    out = io.StringIO()
    code = trace_diff.compare(a, b, out=out)
    return code, out.getvalue()


def test_trace_diff_reports_largest_difference_and_count(tmp_path):
    a = write_tree(tmp_path / "a", {"v": [1.0, 2.0, 3.0], "f": [60.0, 60.0, 60.0]})
    b = write_tree(tmp_path / "b", {"v": [1.0, 2.0 + 4e-10, 3.0 - 1e-10], "f": [60.0] * 3})
    code, text = compare(a, b)
    assert code == 0
    assert "case/seed1/traces/v.csv  max_abs_diff=4.000e-10  differing=2/3" in text
    assert "case/seed1/traces/f.csv  max_abs_diff=0.000e+00  differing=0/3" in text


@pytest.mark.parametrize("b_traces", [
    {"v": [1.0, 2.0, 3.0 + 2e-9]},          # past the bound
    {"v": [1.0, 2.0, float("nan")]},        # NaN on one side only
    {"v": [1.0, 2.0]},                      # shorter time axis
    {"w": [1.0, 2.0, 3.0]},                 # v missing, w extra
])
def test_trace_diff_fails(tmp_path, b_traces):
    a = write_tree(tmp_path / "a", {"v": [1.0, 2.0, 3.0]})
    b = write_tree(tmp_path / "b", b_traces)
    assert compare(a, b)[0] == 1


def test_trace_diff_fails_on_trees_without_traces(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare(tmp_path / "a", tmp_path / "b")[0] == 1
