"""CLI inputs that no edit inside a valid scene can express: a scene file
whose top level is not a JSON object, and a path that names a directory.
Each must exit 2 with a one-line message."""

import json

import pytest

from irsim.cli import main
from irsim.geometry import ConfigError, build_scene


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
