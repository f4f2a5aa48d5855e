"""Determinism of the experiment harness and the CLI contract."""

import json
import os

import numpy as np
import pytest

from irsim import scenarios
from irsim.cli import main
from irsim.experiments import (ExperimentConfig, ResultTable, routes_payload,
                               run_scenario, run_trials)
from irsim.geometry import build_scene
from irsim.scenarios import indoor_hall_config, packaged_scene_path

from conftest import chain_config


def test_result_table_csv_schema():
    table = ResultTable()
    table.add("demo", "x", 1, "metric_a", [1.0, 2.0, 3.0], 3, 7)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,sweep_name,sweep_value,metric,mean,stderr,trials,seed"
    fields = lines[1].split(",")
    assert fields[:4] == ["demo", "x", "1", "metric_a"]
    assert float(fields[4]) == pytest.approx(2.0)
    assert int(fields[6]) == 3 and int(fields[7]) == 7


def test_run_trials_worker_invariance(monkeypatch):
    def fn(t, s):
        rng = np.random.default_rng(s)
        return float(rng.standard_normal()) + t
    monkeypatch.setenv("IRS_SIM_THREADS", "1")
    serial = run_trials(fn, 16, seed=5)
    monkeypatch.setenv("IRS_SIM_THREADS", "8")
    threaded = run_trials(fn, 16, seed=5)
    assert serial == threaded


@pytest.mark.parametrize("scenario", ["fig8", "fig9", "fig11"])
def test_scenario_reruns_byte_identical(scenario):
    cfg = ExperimentConfig(scenario=scenario, seed=11, trials=5)
    a = run_scenario(cfg).to_csv()
    b = run_scenario(cfg).to_csv()
    assert a == b


def test_fig9_runs_without_channel_synthesis(monkeypatch):
    # fig9 is the closed-form m0 sweep alone: fig11's channels and audits stay out of it
    import irsim.experiments as experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("fig9 synthesized channels")

    monkeypatch.setattr(experiments, "synthesize_channels", forbidden)
    rows = run_scenario(ExperimentConfig(scenario="fig9", seed=0, trials=5)).rows
    assert {r[0] for r in rows} == {"fig9"}
    assert len(rows) == 2 * len(experiments.FIG9_M0_SWEEP)


def test_fig6_workers_byte_identical(monkeypatch):
    monkeypatch.setenv("IRS_SIM_THREADS", "1")
    a = run_scenario(ExperimentConfig(scenario="fig6", seed=3, trials=10)).to_csv()
    monkeypatch.setenv("IRS_SIM_THREADS", "8")
    b = run_scenario(ExperimentConfig(scenario="fig6", seed=3, trials=10)).to_csv()
    assert a == b


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario(ExperimentConfig(scenario="fig99"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--scenario", "fig8", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["run", "--scenario", "fig8", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_unknown_scenario_exit_2(capsys):
    assert main(["run", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_custom_requires_config():
    assert main(["run", "--scenario", "custom"]) == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_rejects_non_positive_trials(trials, tmp_path, capsys):
    out = tmp_path / "fig7.csv"
    assert main(["run", "--scenario", "fig7", "--trials", trials, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--trials must be at least 1" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["two", "0", "-1"])
def test_cli_rejects_bad_thread_count(threads, monkeypatch, capsys):
    monkeypatch.setenv("IRS_SIM_THREADS", threads)
    assert main(["run", "--scenario", "fig7", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "IRS_SIM_THREADS must be a positive integer" in err


def test_cli_validate_ok_and_malformed(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(chain_config()))
    assert main(["validate", "--config", str(good)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad)]) == 2

    missing_field = tmp_path / "missing.json"
    cfg = chain_config()
    del cfg["irs"][0]["normal"]
    missing_field.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(missing_field)]) == 2

    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_routes_matches_runner(tmp_path, capsys):
    out = tmp_path / "routes.json"
    assert main(["routes", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    scene = build_scene(indoor_hall_config())
    assert payload == json.loads(json.dumps(routes_payload(scene)))
    assert payload["1"]["irs"] == [3, 4, 5]


def test_cli_routes_infeasible_exit_3(tmp_path):
    cfg = chain_config()
    cfg["effective_regions"] = {"1": []}       # user unreachable
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    assert main(["routes", "--config", str(path)]) == 3


def test_packaged_scenes_load():
    for name in ("double_irs", "indoor_hall"):
        p = packaged_scene_path(name)
        scene = build_scene(json.loads(p.read_text()))
        assert scene.n_irs >= 2


@pytest.mark.parametrize("name", ["indoor_hall", "double_irs"])
def test_packaged_scene_in_sync_with_builder(name):
    shipped = json.loads(packaged_scene_path(name).read_text())
    assert shipped == json.loads(json.dumps(getattr(scenarios, f"{name}_config")()))
