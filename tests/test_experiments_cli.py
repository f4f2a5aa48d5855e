"""Determinism of the experiment harness and the CLI contract."""

import copy
import hashlib
import json
import os

import numpy as np
import pytest

from irsim import scenarios
from irsim.cli import main
from irsim.experiments import (FIG9_M0_SWEEP, FIG13_KAPPAS_DB, ExperimentConfig, ResultTable,
                               routes_payload, run_scenario, run_trials)
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


RERUN_DIGESTS = {      # sha256 of each CSV at seed 11, 5 trials
    "fig7": "84eb74366f047c2a10a836f5c4649a9b520aef707d34d0a1b41e97000c3f4221",
    "fig8": "3706894b6e3e771a4dc49610ea18a70dea0e7a0d348bdc7b6e83fe414a5989ec",
    "fig9": "cb493740337a0446242b35eb46ba45a5b82016a55a874d2590e41a7e55e8e343",
    "fig11": "9db37f0f2d6afb05b73db5355599fee0deff05fb2b7ba544580431f442c553b3",
}


@pytest.mark.parametrize("scenario", ["fig7", "fig8", "fig9", "fig11"])
def test_scenario_reruns_byte_identical(scenario):
    cfg = ExperimentConfig(scenario=scenario, seed=11, trials=5)
    a = run_scenario(cfg).to_csv()
    b = run_scenario(cfg).to_csv()
    assert a == b
    assert hashlib.sha256(a.encode()).hexdigest() == RERUN_DIGESTS[scenario]


def test_fig7_makes_one_receiver_call_per_scheme_and_channel(monkeypatch):
    # each call serves every transmit power of the sweep
    import irsim.experiments as experiments

    calls = []
    real = experiments.linear_receivers

    def counted(H, noise_power, tx_power, scheme):
        calls.append((scheme, np.shape(tx_power)))
        return real(H, noise_power, tx_power, scheme)

    monkeypatch.setattr(experiments, "linear_receivers", counted)
    run_scenario(ExperimentConfig(scenario="fig7", seed=0, trials=2))
    sweep = (len(experiments.FIG7_POWERS_DBM),)
    assert calls == 2 * [("zf", sweep), ("zf", sweep), ("mmse", sweep)]


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_routes_prints_the_finite_gain_of_a_100_hop_corridor(tmp_path, capsys):
    # each hop adds about 17 dB, so the whole route fits in a double while
    # the product of its 100 squared element counts (2**2000) does not
    cfg = {"bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "shape": [4, 1], "n_elements": 4},
           "irs": [{"position": [2 * k, 2 if k % 2 else -2, 2],
                    "normal": [0, -1 if k % 2 else 1, 0], "m0": 32} for k in range(1, 101)],
           "users": [[204, 0, 1.5]],
           "obstacles": [],
           "constants": {"beta_db": -30, "kappa_db": "inf", "carrier_hz": 5e9,
                         "noise_dbm": -90, "tx_dbm": 0}}
    path = tmp_path / "corridor.json"
    path.write_text(json.dumps(cfg))
    assert main(["routes", "--config", str(path)]) == 0
    route = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["1"]
    assert route["irs"] == list(range(1, 101))
    assert route["gain_db"] == pytest.approx(1686.505667, abs=1e-6)


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


FIG6_SHAPES = [(10, 10), (15, 10), (20, 10), (25, 10), (20, 15), (20, 20)]
BUILDER_CALLS = {
    # the default call, fig9's m0 sweep, and m0 = 24 at each fig13 kappa (fig11 too)
    "indoor_hall": [{}] + [{"m0": m0} for m0 in FIG9_M0_SWEEP]
                   + [{"m0": 24, "kappa_db": k} for k in FIG13_KAPPAS_DB],
    # the default call, fig6's LoS and Rayleigh links at each shape, and fig7
    "double_irs": [{}] + [{"n_bs": 1, "irs_shape": s} for s in FIG6_SHAPES]
                  + [{"n_bs": 1, "irs_shape": s, "inter_irs_alpha": 2.5,
                      "inter_irs_kappa_db": "-inf"} for s in FIG6_SHAPES]
                  + [{"n_bs": 40, "irs_shape": (20, 20), "kappa_db": "inf",
                      "bs_irs1_kappa_db": 10.0}],
}


def _builder_leaves(name, kw):
    """{key path: value} of the leaves a builder call sets in its shipped scene."""
    if name == "indoor_hall":
        out = {("irs", j, "m0"): kw.get("m0", 24) for j in range(8)}
        out["constants", "kappa_db"] = kw.get("kappa_db", 20.0)
        return out
    n_bs, shape = kw.get("n_bs", 1), list(kw.get("irs_shape", (20, 20)))
    out = {("bs", "shape"): [n_bs, 1], ("bs", "n_elements"): n_bs,
           ("constants", "kappa_db"): kw.get("kappa_db", "inf")}
    for j in range(2):
        out["irs", j, "shape"] = shape
    if "inter_irs_alpha" in kw:
        out["constants", "link_overrides", "1-2"] = {"alpha": kw["inter_irs_alpha"],
                                                     "kappa_db": kw["inter_irs_kappa_db"]}
    if "bs_irs1_kappa_db" in kw:
        out["constants", "link_overrides", "0-1"] = {"kappa_db": kw["bs_irs1_kappa_db"]}
    return out


@pytest.mark.parametrize("name", ["indoor_hall", "double_irs"])
def test_builder_is_the_shipped_scene_but_for_its_parameters(name):
    shipped = json.loads(packaged_scene_path(name).read_text())
    for kw in BUILDER_CALLS[name]:
        expected = copy.deepcopy(shipped)
        for path, value in _builder_leaves(name, kw).items():
            owner = expected
            for key in path[:-1]:
                owner = owner[key]
            owner[path[-1]] = value
        assert getattr(scenarios, f"{name}_config")(**kw) == expected, kw
