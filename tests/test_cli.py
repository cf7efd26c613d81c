import json

import pytest

from cpessim import cli, presets
from cpessim import threat_model as tm


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def short_doc(preset, variant=None, horizon=0.05):
    doc = presets.preset_doc(preset, variant)
    doc["meta"]["horizon"] = horizon
    return doc


def test_run_exits_ok(tmp_path, capsys):
    path = write_doc(tmp_path / "sc.json", short_doc("case2_load", "a"))
    assert cli.main(["run", path, "--out", str(tmp_path / "out"), "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["scenario"] == "case2_load_a"
    assert (tmp_path / "out" / "traces" / "freq.csv").exists()


def test_batch_rejects_two_files_with_one_name_before_any_run(tmp_path, capsys):
    for variant in ("a", "b"):
        doc = short_doc("case2_load", variant)
        doc["meta"]["name"] = "same"
        write_doc(tmp_path / f"{variant}.json", doc)
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path), "--batch", "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert str(tmp_path / "a.json") in err and str(tmp_path / "b.json") in err
    assert not out.exists()


def test_batch_field_error_names_its_file(tmp_path, capsys):
    write_doc(tmp_path / "a.json", short_doc("case2_load", "a"))
    doc = short_doc("case2_load", "b")
    doc["meta"]["horizon"] = -1
    write_doc(tmp_path / "b.json", doc)
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path), "--batch", "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        f"input error: {tmp_path / 'b.json'}: meta.horizon: must be > 0, got -1.0\n"
    assert not out.exists()


def test_batch_rejects_a_seed_it_would_not_use(tmp_path, capsys):
    write_doc(tmp_path / "a.json", short_doc("case2_load", "a"))
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path), "--batch", "--seed", "7", "--out", str(out),
                     "--json"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "--seed" in err and "--batch" in err
    assert not out.exists()


def test_threat_with_violations_exits_negative(tmp_path, capsys):
    model = tm.preset("cross_layer_firmware")
    broken = tm.ThreatModel(
        name=model.name,
        adversary=tm.AdversaryModel(knowledge=model.adversary.knowledge,
                                    access={tm.Access.NON_POSSESSION},
                                    specificity=model.adversary.specificity,
                                    resources=model.adversary.resources),
        attack=model.attack)
    path = tmp_path / "threat.json"
    path.write_text(json.dumps(tm.to_dict(broken)))
    assert cli.main(["threat", "validate", str(path), "--json"]) == cli.EXIT_NEGATIVE
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_malformed_scenario_exits_input_error(tmp_path, capsys):
    doc = short_doc("case2_load", "a")
    del doc["meta"]["horizon"]
    path = write_doc(tmp_path / "sc.json", doc)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "meta.horizon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mistyped_field_exits_input_error_with_its_path(tmp_path, capsys):
    doc = short_doc("case2_load", "a")
    doc["grid"]["machines"][0]["reactance"] = "0.3"
    path = write_doc(tmp_path / "sc.json", doc)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "grid.machines[0].reactance: must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_runtime_failure_exits_runtime_error(tmp_path, capsys):
    # +4000% on a 0.30 pu load asks 13 pu of three machines that carry 10 pu at most
    doc = short_doc("case2_load", "a")
    doc["attacks"] = [{"type": "load_change", "targets": ["bus29"], "delta": 40.0,
                       "fraction": True, "window": [[0.01, 0.02]]}]
    path = write_doc(tmp_path / "sc.json", doc)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
    assert "exceeds total transfer capability" in capsys.readouterr().err


def test_metrics_on_exported_run_equals_run_report(tmp_path, capsys):
    path = write_doc(tmp_path / "sc.json", presets.preset_doc("case1_dia"))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--json"]) == cli.EXIT_OK
    run_report = json.loads(capsys.readouterr().out)
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_OK
    read_back = json.loads(capsys.readouterr().out)
    assert read_back["scenario"] == run_report["scenario"] == "case1_dia"
    assert read_back["metrics"]
    # NaN never equals itself, so compare the serialized forms
    assert json.dumps(read_back["metrics"], sort_keys=True) == \
        json.dumps(run_report["metrics"], sort_keys=True)


def test_run_and_metrics_print_the_metric_reports_as_report_txt(tmp_path, capsys):
    doc = short_doc("case3_tda", "delay_0", horizon=0.5)
    doc["network"]["commands"] = [{"t": 0.05, "asset": "pcc", "action": "open_breaker"}]
    out = tmp_path / "out"
    assert cli.main(["run", write_doc(tmp_path / "sc.json", doc), "--out", str(out)]) \
        == cli.EXIT_OK
    report_txt = (out / "report.txt").read_text()
    assert capsys.readouterr().out == report_txt
    assert cli.main(["metrics", str(out)]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "  intervals.governor               [0.0740, 0.4890]" in printed
    assert "  per_flow_jitter.mgc->out_bess" in printed  # one line per flow
    assert report_txt.startswith("scenario: case3_tda_delay_0\nseed: 303\n\n" + printed)


def test_metrics_reads_only_the_requested_traces(tmp_path, capsys):
    path = write_doc(tmp_path / "sc.json", short_doc("case1_dia", horizon=0.5))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--json"]) == cli.EXIT_OK
    run_report = json.loads(capsys.readouterr().out)
    (out / "traces" / "p_gen.csv").write_text("not a trace")  # no metric reads p_gen
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_OK
    read_back = json.loads(capsys.readouterr().out)
    assert json.dumps(read_back["metrics"]) == json.dumps(run_report["metrics"])
    (out / "traces" / "freq.csv").unlink()  # a requested trace is missing
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_INPUT
    assert "freq.csv" in capsys.readouterr().err


def test_metrics_refuses_an_export_of_another_layout(tmp_path, capsys):
    path = write_doc(tmp_path / "sc.json", short_doc("case1_dia"))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--json"]) == cli.EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["schema_version"] = 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert str(out / "manifest.json") in err and "schema_version 1" in err


@pytest.mark.parametrize("broken", ["manifest.json", "scenario.json", "events.json"])
def test_metrics_names_the_file_that_is_not_json(tmp_path, capsys, broken):
    path = write_doc(tmp_path / "sc.json", short_doc("case1_dia"))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--json"]) == cli.EXIT_OK
    capsys.readouterr()
    (out / broken).write_text("not json")
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        f"input error: {out / broken}: $: invalid JSON at line 1 column 1: Expecting value\n"


def test_metrics_names_the_line_of_a_trace_it_cannot_read(tmp_path, capsys):
    path = write_doc(tmp_path / "sc.json", short_doc("case2_load", "a"))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--json"]) == cli.EXIT_OK
    capsys.readouterr()
    (out / "traces" / "freq.csv").write_text("t,freq\n0.0\n")
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        f"input error: {out / 'traces' / 'freq.csv'}: line 2: expected t,<value>: '0.0'\n"


def test_metrics_names_the_events_file_without_an_event_list(tmp_path, capsys):
    path = write_doc(tmp_path / "sc.json", short_doc("case2_load", "a"))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--json"]) == cli.EXIT_OK
    capsys.readouterr()
    (out / "events.json").write_text("{}")
    assert cli.main(["metrics", str(out), "--json"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        f"input error: {out / 'events.json'}: events: missing field\n"


def test_run_refuses_a_directory_holding_another_runs_traces(tmp_path, capsys):
    out = tmp_path / "out"
    first = write_doc(tmp_path / "c1.json", short_doc("case1_dia"))
    assert cli.main(["run", first, "--out", str(out), "--json"]) == cli.EXIT_OK
    assert cli.main(["run", first, "--out", str(out), "--json"]) == cli.EXIT_OK  # same run
    capsys.readouterr()
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    second = write_doc(tmp_path / "c2.json", short_doc("case2_load", "a"))
    assert cli.main(["run", second, "--out", str(out), "--json"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert str(out / "traces") in err
    assert "p_fast.csv, p_gen.csv, pv_loop_meas.csv" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_preset_list_prints_every_variant_of_every_preset(capsys):
    assert cli.main(["preset", "list"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(presets.PRESET_NAMES)
    for line, variants in zip(lines, presets.VARIANTS.values()):
        assert line.endswith(f"(variants: {', '.join(variants)})")


def risk_doc(**overrides):
    doc = {"name": "breach", "probability": 2,
           "impacts": {"people_health_safety": "low", "uninterrupted_operation": "high",
                       "equipment_damage_legal": "low", "financial_profit": "medium"}}
    doc.update(overrides)
    return doc


def test_risk_exits_ok(tmp_path, capsys):
    path = write_doc(tmp_path / "risk.json", risk_doc())
    assert cli.main(["risk", path, "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["name"] == "breach"


def test_risk_prints_the_risk_block_of_report_txt(tmp_path, capsys):
    doc = short_doc("case2_load", "a")
    out = tmp_path / "out"
    assert cli.main(["run", write_doc(tmp_path / "sc.json", doc), "--out", str(out)]) \
        == cli.EXIT_OK
    capsys.readouterr()
    report_txt = (out / "report.txt").read_text()
    assert cli.main(["risk", write_doc(tmp_path / "risk.json", doc["risk"])]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("[risk]\n  damage ")
    assert report_txt.endswith("\n\n" + printed)


def test_risk_list_priorities_exits_input_error(tmp_path, capsys):
    path = write_doc(tmp_path / "risk.json", risk_doc(priorities=[4, 3, 2, 1]))
    assert cli.main(["risk", path, "--json"]) == cli.EXIT_INPUT
    assert "risk.priorities" in capsys.readouterr().err


def test_threat_unknown_key_exits_input_error(tmp_path, capsys):
    path = write_doc(tmp_path / "threat.json",
                     dict(tm.to_dict(tm.preset("time_delay")), notez="delayed"))
    assert cli.main(["threat", "validate", path]) == cli.EXIT_INPUT
    assert "notez: unknown field" in capsys.readouterr().err


def test_risk_bad_thresholds_exits_input_error(tmp_path, capsys):
    path = write_doc(tmp_path / "risk.json", risk_doc(pool_thresholds=[10, 20, 5]))
    assert cli.main(["risk", path, "--json"]) == cli.EXIT_INPUT
    assert "risk.pool_thresholds" in capsys.readouterr().err
