import importlib.util
import io
import shutil
from pathlib import Path

import numpy as np
import pytest

from cpessim import presets
from cpessim.metrics import TimeSeries, csv_time_cells

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PINNED = Path(__file__).with_name("export_hashes.txt")


def load_tool(name: str, folder: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_diff = load_tool("trace_diff")
export_hashes = load_tool("export_hashes")
ab_time = load_tool("ab_time")


def write_tree(root: Path, traces: dict[str, list[float]]) -> Path:
    for name, values in traces.items():
        path = root / "case" / "seed1" / "traces" / f"{name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        series = TimeSeries(t=np.arange(len(values)) * 0.5, v=np.array(values), name=name)
        path.write_text(series.to_csv(csv_time_cells(series.t)))
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


def digests(lines) -> dict[str, str]:
    """path -> sha256 from ``<sha256>  <path>`` lines."""
    return {line[66:]: line[:64] for line in lines}


def test_exports_match_pinned_hashes(monkeypatch):
    run = export_hashes.engine.run
    unordered = []

    def order_checked_run(sc, seed=None):
        # protection events are inserted by time after the run, which needs this order
        result = run(sc, seed=seed)
        times = [e["t"] for e in result.event_log]
        if times != sorted(times):
            unordered.append((sc.name, seed))
        return result

    monkeypatch.setattr(export_hashes.engine, "run", order_checked_run)
    pinned = digests(PINNED.read_text().splitlines())
    got = digests(export_hashes.export_hashes())
    differing = sorted(path for path in pinned.keys() | got.keys()
                       if pinned.get(path) != got.get(path))
    assert not differing, (f"{len(differing)} exported files differ from {PINNED.name}:\n"
                           + "\n".join(differing))
    assert unordered == []


def test_export_hashes_covers_every_preset_variant():
    # built from the presets' own table, so a new variant reaches the pinned file
    assert tuple(presets.VARIANTS) == presets.PRESET_NAMES
    assert set(export_hashes.VARIANTS) == {(name, v) for name, variants
                                           in presets.VARIANTS.items() for v in variants}
    assert len(export_hashes.VARIANTS) == 15


def test_pinned_hashes_see_one_ulp(monkeypatch):
    run = export_hashes.engine.run

    def nudged_run(sc, seed=None):
        result = run(sc, seed=seed)
        if sc.name == "case2_load_a":
            v = result.traces["freq"].v
            v[100] = np.nextafter(v[100], np.inf)
        return result

    monkeypatch.setattr(export_hashes.engine, "run", nudged_run)
    pinned = digests(PINNED.read_text().splitlines())
    got = digests(export_hashes.export_hashes(
        variants=(("case2_load", "a"), ("case2_load", "b")), seed_offsets=(0,)))
    seed = presets.preset_scenario("case2_load", "a").seed
    assert sorted(path for path, digest in got.items() if pinned[path] != digest) == [
        f"case2_load/a/seed{seed}/traces/freq.csv"]


def ab_time_row(src: Path, change_src: Path, capsys) -> tuple[int, str, list[str]]:
    """The exit code, the variant's row and the lines printed after the table."""
    code = ab_time.main([str(src), "--change-src", str(change_src), "--repeats", "1",
                         "--variant", "case4_td/n11"])
    header, row, *tail = capsys.readouterr().out.splitlines()
    assert header.startswith("variant ") and row.startswith("case4_td/n11 ")
    return code, row, tail


def test_ab_time_reports_one_checkout_against_itself(capsys):
    src = TOOLS.parent / "src"
    code, row, tail = ab_time_row(src, src, capsys)
    assert code == 0
    run_wins, export_wins = row.split()[4], row.split()[-1]  # engine.run, engine.export
    assert run_wins in ("0/1", "1/1") and export_wins in ("0/1", "1/1")
    assert len(row.split()) == 9
    assert tail == ["outputs identical"]


def test_ab_time_speedup_is_the_median_of_per_repeat_ratios():
    # the change is 1.1x faster in every repeat, but the host switches to its
    # half-speed mode between the two sides of the last two repeats, so the
    # ratio of the two medians would read 0.55x
    fast, slow = 1.0, 2.0
    parent = [fast, fast, slow, fast, fast]
    change = [fast / 1.1, fast / 1.1, slow / 1.1, slow / 1.1, slow / 1.1]
    p_med, c_med, speedup, wins = ab_time.summary(parent, change).split()
    assert (p_med, c_med) == ("1.0000", "1.8182")
    assert speedup == "1.10x"
    assert wins == "3/5"


def test_ab_time_fails_when_a_trace_moves(tmp_path, capsys):
    shutil.copytree(TOOLS.parent / "src" / "cpessim", tmp_path / "cpessim")
    physical = tmp_path / "cpessim" / "physical.py"
    text = physical.read_text()
    assert "sixth = dt / 6.0" in text
    physical.write_text(text.replace("sixth = dt / 6.0", "sixth = dt / 6.0 * (1 + 1e-12)"))
    code, _, tail = ab_time_row(TOOLS.parent / "src", tmp_path, capsys)
    assert code == 1
    assert tail == ["case4_td/n11: run outputs (traces, event log, attack samples "
                    "or reports) differ", "1 variants differ"]


def test_ab_time_fails_when_only_an_export_moves(tmp_path, capsys):
    shutil.copytree(TOOLS.parent / "src" / "cpessim", tmp_path / "cpessim")
    engine = tmp_path / "cpessim" / "engine.py"
    text = engine.read_text()
    assert 'json.dumps(report, indent=2)' in text
    engine.write_text(text.replace('json.dumps(report, indent=2)', 'json.dumps(report, indent=3)'))
    code, _, tail = ab_time_row(TOOLS.parent / "src", tmp_path, capsys)
    assert code == 1
    assert tail == ["case4_td/n11: only exported files differ: report.json", "1 variants differ"]


def test_benchmark_tracer_targets_resolve():
    # the traced benchmark run wraps these names before the CLI starts, so a
    # kernel renamed or deleted here would end every traced run with KeyError
    tracer = load_tool("tracer", TOOLS.parent / "perfbench")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer.targets() if attr not in vars(owner)]
    assert missing == []
    timers = tracer.Tracer()
    try:
        timers.install()
    finally:
        timers.uninstall()
    assert tracer.leftover_wrappers() == []
