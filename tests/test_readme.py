"""The README's Python snippets run, in order, against the package sources,
and the documented ``enhance`` configs parse."""

import re
import textwrap
from pathlib import Path

import pytest

from dualwin import config
from dualwin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)


def _readme_config():
    """The fenced block after the README's description of the ``enhance`` config."""
    text = README.read_text()
    return re.search(r"^`enhance` reads a flat .*?^```\n(.*?)^```", text, re.M | re.S).group(1)


def _docstring_config():
    """The indented example after ``Example::`` in the ``config`` module docstring."""
    example = re.search(r"Example::\n\n(.*?)\n\n", config.__doc__, re.S).group(1)
    return textwrap.dedent(example)


@pytest.mark.parametrize("example", [_readme_config, _docstring_config], ids=["readme", "docstring"])
def test_documented_enhance_config_parses(example):
    # every key the docs show must still be a config key
    job = config.build_job(config.parse_pairs(example()))
    assert job.pipeline.stage1.kind == "oracle_mag_mask"
    assert job.pipeline.beamformer == "woodbury"
    assert job.pipeline.stage2.source == "beamformer"


def test_readme_config_refuses_a_horizon_its_last_stage_cannot_predict(tmp_path, capsys):
    # its chain ends in passthrough:beamformer, which cannot predict a frame ahead
    text = _readme_config()
    assert "frames_ahead = 0" in text
    path = tmp_path / "run.conf"
    path.write_text(text.replace("frames_ahead = 0", "frames_ahead = 1"), encoding="utf-8")
    assert main(["enhance", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: frames_ahead > 0 needs a last stage that predicts")


def _readme_cli_lines():
    """The ``dualwin …`` lines of the README's CLI block, trailing comments cut."""
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("dualwin ")]


def test_readme_cli_lines_run_as_written(tmp_path, monkeypatch, capsys):
    # run.conf is the README's config, whose paths are the simulate line's scene directory
    lines = _readme_cli_lines()
    assert [argv[0] for argv in lines] == ["windows", "simulate", "enhance", "latency-check"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(_readme_config(), encoding="utf-8")
    for argv in lines:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert all((tmp_path / name).is_file() for name in ("scene/scene.json", "enhanced.wav", "report.json"))
