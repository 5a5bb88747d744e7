import json
import os
import sys
from functools import partial

import numpy as np
import pytest

from dualwin import beamformer, estimators
from dualwin.cli import main
from dualwin.wavio import read_wav, write_wav


def _write_config(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert main(["simulate", "--out-dir", str(out), "--seed", "5", "--duration", "0.5"]) == 0
    return out


class TestWindowsCommand:
    def test_csv_output(self, capsys):
        assert main(["windows", "--kind", "tukey", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "cola_residual" in lines[0]
        assert lines[1] == "index,analysis,synthesis"
        assert len(lines) == 258  # comment + header + 256 samples
        first = lines[2].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0 and first[2] == ""

    def test_json_output(self, tmp_path):
        out = tmp_path / "win.json"
        assert main(["windows", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["analysis"]) == 256
        assert len(payload["synthesis"]) == 64
        assert payload["cola_residual"] < 1e-10

    def test_bad_kind_is_validation_error(self, capsys):
        assert main(["windows", "--kind", "hamming"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_wavs_and_manifest(self, scene_dir):
        mixture, fs = read_wav(scene_dir / "mixture.wav")
        reference, _ = read_wav(scene_dir / "reference.wav")
        assert fs == 16000
        assert mixture.shape == (6, 8000)
        assert reference.shape == (1, 8000)
        manifest = json.loads((scene_dir / "scene.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["sources"][0]["role"] == "target"
        assert len(manifest["sources"]) == 3

    @pytest.mark.parametrize(
        "flag,value", [("--duration", "inf"), ("--snr-db", "nan"), ("--diameter", "inf")]
    )
    def test_non_finite_float_flag_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "scene"
        assert main(["simulate", "--out-dir", str(out), flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: argument {flag}: expected a finite number, got {value!r}"]
        assert not out.exists()


class TestEnhanceCommand:
    def test_end_to_end_with_report(self, tmp_path, scene_dir):
        out_wav = tmp_path / "enhanced.wav"
        report_path = tmp_path / "report.json"
        config = _write_config(
            tmp_path / "run.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"reference = {scene_dir / 'reference.wav'}",
                f"output = {out_wav}",
                f"report = {report_path}",
                "stage1 = oracle_mag_mask",
                "beamformer = woodbury",
                "stage2 = passthrough:beamformer",
            ],
        )
        assert main(["enhance", "--config", config]) == 0
        enhanced, fs = read_wav(out_wav)
        assert fs == 16000 and enhanced.shape == (1, 8000)
        report = json.loads(report_path.read_text())
        assert report["algorithmic_latency_ms"] == 4.0
        assert report["metrics"]["si_sdr_db"] > 0.0
        assert report["job"]["output"] == str(out_wav)

    def test_runs_are_bit_identical(self, tmp_path, scene_dir):
        outs = []
        for name in ("a.wav", "b.wav"):
            config = _write_config(
                tmp_path / f"{name}.conf",
                [
                    f"mixture = {scene_dir / 'mixture.wav'}",
                    f"output = {tmp_path / name}",
                    "seed = 11",
                ],
            )
            assert main(["enhance", "--config", config]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_divisibility_violation_exits_1(self, tmp_path, scene_dir, capsys):
        config = _write_config(
            tmp_path / "bad.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"output = {tmp_path / 'x.wav'}",
                "ows_samples = 48",
            ],
        )
        assert main(["enhance", "--config", config]) == 1
        assert "multiple of hop" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, tmp_path, scene_dir, capsys):
        config = _write_config(
            tmp_path / "typo.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"output = {tmp_path / 'x.wav'}",
                "forgeting = 0.99",
            ],
        )
        assert main(["enhance", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: unknown config key(s): forgeting"]

    @pytest.mark.parametrize(
        "key,value", [("iws_ms", "inf"), ("iws_ms", "nan"), ("loading", "nan"), ("loading", "inf")]
    )
    def test_non_finite_config_number_exits_1(self, tmp_path, scene_dir, capsys, key, value):
        out_wav = tmp_path / "x.wav"
        config = _write_config(
            tmp_path / "nonfinite.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"output = {out_wav}",
                "beamformer = woodbury",
                f"{key} = {value}",
            ],
        )
        assert main(["enhance", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {key}: expected a finite number, got {value!r}"]
        assert not out_wav.exists()

    def test_direct_beamformer_exits_1(self, tmp_path, scene_dir, capsys):
        config = _write_config(
            tmp_path / "direct.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"output = {tmp_path / 'x.wav'}",
                "beamformer = direct",
            ],
        )
        assert main(["enhance", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: beamformer must be one of ('woodbury',)")

    def test_missing_mixture_file_exits_1(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "m.conf", ["mixture = nope.wav", "output = out.wav"]
        )
        assert main(["enhance", "--config", config]) == 1


class TestMalformedInputs:
    """Malformed input files exit 1 with a one-line cause, not a traceback."""

    def _enhance(self, tmp_path, mixture, stages=()):
        config = _write_config(
            tmp_path / "run.conf",
            [f"mixture = {mixture}", f"output = {tmp_path / 'out.wav'}", *stages],
        )
        return main(["enhance", "--config", config])

    @pytest.mark.parametrize(
        "name,write",
        [
            ("no-frames.npz", lambda path: np.savez(path, other=np.zeros(3))),
            ("plain.npy", lambda path: np.save(path, np.zeros((3, 129), complex))),
            ("empty.npz", lambda path: path.write_bytes(b"")),
        ],
        ids=["npz-without-frames", "plain-npy", "empty-file"],
    )
    def test_malformed_frame_file_exits_1(self, tmp_path, scene_dir, capsys, name, write):
        path = tmp_path / name
        write(path)
        code = self._enhance(tmp_path, scene_dir / "mixture.wav", [f"stage1 = file:{path}"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: frame file {path} ")

    def test_truncated_wav_exits_1(self, tmp_path, scene_dir, capsys):
        path = tmp_path / "truncated.wav"
        path.write_bytes((scene_dir / "mixture.wav").read_bytes()[:30])
        code = self._enhance(tmp_path, path)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: truncated")

    def test_non_finite_float_wav_exits_1(self, tmp_path, capsys):
        # rejected when read, before any numpy warning from the chain
        path = tmp_path / "inf.wav"
        mixture = np.random.default_rng(3).uniform(-0.5, 0.5, (2, 4000))
        mixture[1, 1234] = np.inf
        write_wav(path, mixture, 16000)
        code = self._enhance(tmp_path, path, ["beamformer = woodbury"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: non-finite sample value in the float data of {path}"]


class TestRuntimeErrors:
    """Runtime failures exit 2 with a one-line cause, not a traceback."""

    def _enhance(self, tmp_path, scene_dir, stages):
        config = _write_config(
            tmp_path / "run.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"output = {tmp_path / 'out.wav'}",
                *stages,
            ],
        )
        return main(["enhance", "--config", config])

    def test_external_reply_length_mismatch_exits_2(self, tmp_path, scene_dir, capsys):
        stub = os.path.join(os.path.dirname(__file__), "external_stub.py")
        stage1 = f"stage1 = external:{sys.executable} {stub} short"
        code = self._enhance(tmp_path, scene_dir, [stage1])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: external estimator replied")

    @pytest.mark.parametrize("stages", [[], ["beamformer = woodbury"]], ids=["stage1", "woodbury"])
    def test_external_non_finite_reply_exits_2(self, tmp_path, scene_dir, capsys, stages):
        # a misbehaving child is a runtime failure, named before any later
        # stage trips over its values
        stub = os.path.join(os.path.dirname(__file__), "external_stub.py")
        stage1 = f"stage1 = external:{sys.executable} {stub} nan"
        code = self._enhance(tmp_path, scene_dir, [stage1, *stages])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: external estimator replied non-finite values in frame 0"]

    def test_external_timeout_exits_2(self, tmp_path, scene_dir, capsys, monkeypatch):
        monkeypatch.setattr(
            estimators, "ExternalEstimator", partial(estimators.ExternalEstimator, timeout=0.2)
        )
        stub = os.path.join(os.path.dirname(__file__), "external_stub.py")
        stage1 = f"stage1 = external:{sys.executable} {stub} hang"
        code = self._enhance(tmp_path, scene_dir, [stage1])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: external estimator timed out after 0.2s"]

    def test_beamformer_state_error_exits_2(self, tmp_path, scene_dir, capsys, monkeypatch):
        rls_update = beamformer.OnlineMcwf._rls_update

        def corrupt(self, y, s):
            self._inv *= -1.0  # a negative-definite inverse fails the RLS denominator check
            return rls_update(self, y, s)

        monkeypatch.setattr(beamformer.OnlineMcwf, "_rls_update", corrupt)
        code = self._enhance(tmp_path, scene_dir, ["beamformer = woodbury"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: RLS denominator <= 0; inverse is no longer positive-definite"]


class TestLatencyCheckCommand:
    def test_reports_paper_latency_column(self, capsys):
        assert main(["latency-check"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("frames_ahead=")]
        assert len(lines) == 4
        for line, ms in zip(lines, ("4", "2", "0", "-2")):
            assert f"measured={ms} ms" in line
            assert line.endswith("PASS")


class TestArgumentHandling:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["windows", "--no-such-flag"]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["transmogrify"]) == 1
