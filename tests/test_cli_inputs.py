"""CLI inputs that no edit inside a valid scene can express: a scene file
whose top level is not a JSON object, a file that is not UTF-8 or is nested
too deeply to parse, a path that names a directory, a negative seed, and
--config given to a scenario that does not read it.  Each must exit 2 with a
one-line message.  --out is written by the CLI alone, with the bytes it
would print."""

import json

import pytest

from irsim import cli
from irsim.cli import main
from irsim.experiments import RUNNERS
from irsim.geometry import ConfigError, build_scene, load_scene
from irsim.scenarios import packaged_scene_path


def _assert_config_error(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("payload", [[1, 2], 5])
def test_scene_that_is_not_an_object_rejected(payload, tmp_path, capsys):
    with pytest.raises(ConfigError, match="a scene description must be a JSON object"):
        build_scene(payload)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(payload))
    for argv in (["validate", "--config", str(path)], ["routes", "--config", str(path)],
                 ["run", "--scenario", "custom", "--config", str(path)]):
        assert main(argv) == 2
        _assert_config_error(capsys)


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "{dir}"],
    ["routes", "--config", "{dir}"],
    ["routes", "--out", "{dir}"],
    ["run", "--scenario", "custom", "--config", "{dir}"],
])
def test_directory_path_exits_2(argv, tmp_path, capsys):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    _assert_config_error(capsys)


@pytest.mark.parametrize("content", [b"\x7fELF\x02\x01\x01\x00\xd0\x80\xff", b"[" * 200_000],
                         ids=["not_utf8", "over_nested"])
def test_unreadable_scene_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scene(path)
    for argv in (["validate", "--config", str(path)], ["routes", "--config", str(path)],
                 ["run", "--scenario", "custom", "--config", str(path)]):
        assert main(argv) == 2
        _assert_config_error(capsys)


@pytest.mark.parametrize("scenario", ["fig11", "fig8"])     # seeded, unseeded
def test_negative_seed_exits_2_before_running(scenario, monkeypatch, capsys):
    def never(config):
        raise AssertionError("the scenario ran")
    monkeypatch.setattr(cli, "run_scenario", never)
    assert main(["run", "--scenario", scenario, "--seed", "-1"]) == 2
    _assert_config_error(capsys)


@pytest.fixture
def scenario_must_not_run(monkeypatch):
    def never(config):
        raise AssertionError("the scenario ran")
    monkeypatch.setattr(cli, "run_scenario", never)


@pytest.mark.parametrize("scenario", ["fig9", "fig8"])
def test_config_with_a_built_in_scenario_exits_2_before_running(scenario, scenario_must_not_run,
                                                                capsys):
    argv = ["run", "--scenario", scenario, "--config", str(packaged_scene_path("double_irs"))]
    assert main(argv) == 2
    _assert_config_error(capsys)


def test_out_directory_exits_2_before_running(scenario_must_not_run, tmp_path, capsys):
    assert main(["run", "--scenario", "fig8", "--out", str(tmp_path)]) == 2
    _assert_config_error(capsys)


@pytest.mark.parametrize("argv", [["run", "--scenario", "fig8"], ["routes"]])
def test_out_holds_the_bytes_printed_to_stdout(argv, tmp_path, capsys):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_key_error_in_a_runner_is_not_a_configuration_error(monkeypatch):
    def broken(config):
        raise KeyError("no link channel (0, 9) in this set")
    monkeypatch.setitem(RUNNERS, "fig8", broken)
    with pytest.raises(KeyError, match="no link channel"):
        main(["run", "--scenario", "fig8"])
