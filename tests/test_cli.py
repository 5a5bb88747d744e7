import contextlib
import io
import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualwin import beamformer, cli, estimators
from dualwin.cli import main
from dualwin.framing import FrameParams
from dualwin.pipeline import PipelineConfig, Session, run_pipeline
from dualwin.simulate import make_scene
from dualwin.wavio import read_wav, write_wav


def _write_config(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _write_noise_wav(path):
    """A 2-channel, 300-sample uniform-noise WAV: a short MCWF input."""
    write_wav(path, np.random.default_rng(4).uniform(-0.5, 0.5, (2, 300)), 16000)
    return path


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

    @pytest.mark.parametrize(
        "kind, geometry",
        [
            ("tukey", ["--iws", "256", "--ows", "64", "--hop", "32"]),
            ("sqrthann", ["--iws", "512", "--ows", "32", "--hop", "32", "--n-dft", "512"]),
        ],
        ids=["tukey-16-4-2", "sqrthann-32-2-2"],
    )
    def test_synthesis_peak_gain_is_max_abs_l_as_enhance_reports_it(self, tmp_path, scene_dir, kind, geometry):
        out = tmp_path / "win.json"
        assert main(["windows", "--kind", kind, *geometry, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["synthesis_peak_gain"] == max(abs(v) for v in payload["synthesis"])
        assert "tukey_alpha" not in payload
        report_path = tmp_path / "report.json"
        lines = [
            f"mixture = {scene_dir / 'mixture.wav'}",
            f"output = {tmp_path / 'out.wav'}",
            f"report = {report_path}",
            f"window = {kind}",
            *(f"{key}_samples = {payload[key]}" for key in ("iws", "ows", "hop")),
            f"n_dft = {payload['n_dft']}",
        ]
        assert main(["enhance", "--config", _write_config(tmp_path / "run.conf", lines)]) == 0
        report = json.loads(report_path.read_text())
        assert report["synthesis_peak_gain"] == payload["synthesis_peak_gain"]
        assert report["config"]["window"] == {"name": kind}


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

    def test_default_flags_are_make_scene_defaults(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["simulate", "--out-dir", str(out)]) == 0
        scene = make_scene(seed=0)
        write_wav(tmp_path / "mixture.wav", scene.mixture, scene.sample_rate)
        write_wav(tmp_path / "reference.wav", scene.target_direct, scene.sample_rate)
        for name in ("mixture.wav", "reference.wav"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["--channels", "16384"], "16384 channels of 32 bits do not fit a WAV header"),
            (
                ["--duration", "12000"],
                "4608000000 bytes of samples (192000000 per channel) do not fit a WAV file's 32-bit chunk sizes",
            ),
        ],
        ids=["block-size", "data-past-4-gb"],
    )
    def test_a_scene_no_wav_can_hold_is_refused_before_it_is_simulated(
        self, tmp_path, capsys, monkeypatch, argv, cause
    ):
        def refused(**kwargs):
            raise AssertionError(f"make_scene was called with {kwargs}")

        monkeypatch.setattr(cli, "make_scene", refused)
        out = tmp_path / "scene"
        assert main(["simulate", "--out-dir", str(out), *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {cause}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["--sample-rate", "445"], ["--duration", "0.0002"]], ids=["445-hz", "3-samples"]
    )
    def test_shortest_source_band_still_writes(self, tmp_path, argv):
        # one rfft bin falls inside the 200 Hz .. 0.45 fs band at each
        assert main(["simulate", "--out-dir", str(tmp_path / "scene"), *argv]) == 0
        assert (tmp_path / "scene" / "mixture.wav").exists()


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
        assert report["frames"] == FrameParams().frames_to_release(8000)
        assert report["metrics"]["si_sdr_db"] > 0.0
        assert report["job"]["output"] == str(out_wav)

    @pytest.mark.parametrize("with_reference", [True, False], ids=["reference", "no-reference"])
    def test_report_is_the_run_report_and_the_job(self, tmp_path, scene_dir, monkeypatch, with_reference):
        reports = []

        def recording(*args, **kwargs):
            enhanced, report = run_pipeline(*args, **kwargs)
            reports.append(report)
            return enhanced, report

        monkeypatch.setattr(cli, "run_pipeline", recording)
        reference = str(scene_dir / "reference.wav") if with_reference else None
        out_wav, report_path = tmp_path / "enhanced.wav", tmp_path / "report.json"
        lines = [
            f"mixture = {scene_dir / 'mixture.wav'}",
            f"output = {out_wav}",
            f"report = {report_path}",
        ]
        if reference:
            lines.append(f"reference = {reference}")
        assert main(["enhance", "--config", _write_config(tmp_path / "run.conf", lines)]) == 0
        (report,) = reports
        assert (report.metrics is None) != with_reference
        payload = asdict(report)
        payload["job"] = {
            "mixture": str(scene_dir / "mixture.wav"),
            "reference": reference,
            "output": str(out_wav),
        }
        assert report_path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_ref_mic_is_the_passthrough_mic_of_the_library_a_session_and_enhance(self, tmp_path, scene_dir):
        # ref_mic is the one reference-mic setting: a passthrough of the mixture forwards it
        # whether the chain is a PipelineConfig or a config file
        mixture, _ = read_wav(scene_dir / "mixture.wav")
        cfg = PipelineConfig(ref_mic=2)
        out, _ = run_pipeline(cfg, mixture)
        assert np.max(np.abs(out - mixture[2])) < 1e-10
        hop, n = cfg.params.hop, mixture.shape[1]
        with contextlib.closing(Session(cfg, len(mixture))) as session:
            parts = [session.push(mixture[:, i : i + hop]) for i in range(0, n, hop)]
            parts.append(session.flush())
        assert np.array_equal(np.concatenate(parts)[:n], out)
        config = _write_config(
            tmp_path / "run.conf",
            [f"mixture = {scene_dir / 'mixture.wav'}", f"output = {tmp_path / 'out.wav'}", "ref_mic = 2"],
        )
        assert main(["enhance", "--config", config]) == 0
        enhanced, _ = read_wav(tmp_path / "out.wav")
        assert np.array_equal(enhanced, out.astype(np.float32)[np.newaxis])
        assert np.array_equal(enhanced[0], mixture[2])

    def test_runs_are_bit_identical(self, tmp_path, scene_dir):
        outs = []
        for name in ("a.wav", "b.wav"):
            config = _write_config(
                tmp_path / f"{name}.conf",
                [
                    f"mixture = {scene_dir / 'mixture.wav'}",
                    f"output = {tmp_path / name}",
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

    def test_update_stride_is_not_a_config_key(self, tmp_path, scene_dir, capsys):
        # the MCWF updates its filter every frame; the stride key is gone
        config = _write_config(
            tmp_path / "stride.conf",
            [f"mixture = {scene_dir / 'mixture.wav'}", f"output = {tmp_path / 'x.wav'}", "update_stride = 1"],
        )
        assert main(["enhance", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: unknown config key(s): update_stride"]
        assert not (tmp_path / "x.wav").exists()

    def test_output_past_32_bit_wav_chunk_sizes_exits_1(self, tmp_path, scene_dir, capsys, monkeypatch):
        # 4 GiB of float32 output, broadcast from one value: the size check runs before any byte is built
        monkeypatch.setattr(cli, "run_pipeline", lambda *args: (np.broadcast_to(0.0, (2**30,)), None))
        out_wav = tmp_path / "x.wav"
        config = _write_config(
            tmp_path / "run.conf", [f"mixture = {scene_dir / 'mixture.wav'}", f"output = {out_wav}"]
        )
        capsys.readouterr()
        assert main(["enhance", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: 4294967296 bytes of samples (1073741824 per channel) do not fit a WAV file's 32-bit chunk sizes"
        ]
        assert not out_wav.exists()

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

    def test_subnormal_loading_exits_1(self, tmp_path, scene_dir, capsys):
        # 1e-310 > 0, but the initial inverse I / loading overflows
        out_wav = tmp_path / "x.wav"
        config = _write_config(
            tmp_path / "subnormal.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"output = {out_wav}",
                "beamformer = woodbury",
                "loading = 1e-310",
            ],
        )
        assert main(["enhance", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: loading must be finite and > 0, got 1e-310"]
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

    @pytest.mark.parametrize(
        "lines",
        [
            ["stage1 = passthrough:stage1"],
            ["stage1 = passthrough:beamformer", "beamformer = woodbury", "stage2 = passthrough:stage1"],
            # predicting ahead, this chain used to release zeros and exit 0
            ["stage1 = passthrough:beamformer", "frames_ahead = 1"],
            ["stage1 = oracle_mag_mask", "stage2 = passthrough:beamformer"],
        ],
        ids=["stage1-of-stage1", "stage1-of-beamformer", "stage1-of-beamformer-predicting", "stage2-of-no-beamformer"],
    )
    def test_passthrough_of_a_missing_source_exits_1(self, tmp_path, scene_dir, capsys, lines):
        out_wav = tmp_path / "x.wav"
        config = _write_config(
            tmp_path / "missing.conf",
            [
                f"mixture = {scene_dir / 'mixture.wav'}",
                f"reference = {scene_dir / 'reference.wav'}",
                f"output = {out_wav}",
                *lines,
            ],
        )
        assert main(["enhance", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stage")
        assert "passthrough source" in err[0]
        assert not out_wav.exists()

    def test_missing_mixture_file_exits_1(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "m.conf", ["mixture = nope.wav", "output = out.wav"]
        )
        assert main(["enhance", "--config", config]) == 1


class TestBlasThreads:
    def test_output_and_metrics_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a threaded BLAS dot rounds its sum by the thread count: on a 2 s scene SI-SDR
        # took one at 16000 samples, and the report's last digits moved with the threads
        scene = tmp_path / "scene"
        assert main(["simulate", "--out-dir", str(scene), "--seed", "3", "--duration", "2"]) == 0
        root = pathlib.Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
        env["PYTHONPATH"] = str(root / "src")
        runs = []
        for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                              ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            out_wav, report = tmp_path / f"{name}.wav", tmp_path / f"{name}.json"
            config = _write_config(
                tmp_path / f"{name}.conf",
                [
                    f"mixture = {scene / 'mixture.wav'}",
                    f"reference = {scene / 'reference.wav'}",
                    f"output = {out_wav}",
                    f"report = {report}",
                    "stage1 = oracle_mag_mask",
                    "beamformer = woodbury",
                    "stage2 = passthrough:beamformer",
                ],
            )
            result = subprocess.run(
                [sys.executable, "-m", "dualwin.cli", "enhance", "--config", config],
                env={**env, **threads}, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            runs.append((out_wav.read_bytes(), json.loads(report.read_text())["metrics"]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


class TestMalformedInputs:
    """Malformed input files exit 1 with a one-line cause, not a traceback."""

    def _enhance(self, tmp_path, mixture, stages=()):
        config = _write_config(
            tmp_path / "run.conf",
            [f"mixture = {mixture}", f"output = {tmp_path / 'out.wav'}", *stages],
        )
        return main(["enhance", "--config", config])

    @pytest.mark.parametrize(
        "name,write,cause",
        [
            ("no-frames.npz", lambda path: np.savez(path, other=np.zeros(3)), "frame file {path} "),
            ("plain.npy", lambda path: np.save(path, np.zeros((3, 129), complex)), "frame file {path} "),
            ("empty.npz", lambda path: path.write_bytes(b""), "frame file {path} "),
            (
                "128-bins.npz",
                lambda path: estimators.save_frame_file(path, np.zeros((250, 128), complex), FrameParams()),
                "frame file shape (250, 128) does not match 129 bins",
            ),
        ],
        ids=["npz-without-frames", "plain-npy", "empty-file", "bins-past-n-bins"],
    )
    def test_malformed_frame_file_exits_1(self, tmp_path, scene_dir, capsys, name, write, cause):
        path = tmp_path / name
        write(path)
        code = self._enhance(tmp_path, scene_dir / "mixture.wav", [f"stage1 = file:{path}"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: " + cause.format(path=path))

    def test_truncated_wav_exits_1(self, tmp_path, scene_dir, capsys):
        path = tmp_path / "truncated.wav"
        path.write_bytes((scene_dir / "mixture.wav").read_bytes()[:30])
        code = self._enhance(tmp_path, path)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: truncated")

    def test_placeholder_data_size_exits_1(self, tmp_path, scene_dir, capsys):
        # a streamed WAV's 0xFFFFFFFF data size is checked against the file, never allocated
        blob = bytearray((scene_dir / "mixture.wav").read_bytes())
        data = blob.index(b"data")
        blob[data + 4 : data + 8] = struct.pack("<I", 0xFFFFFFFF)
        path = tmp_path / "placeholder.wav"
        path.write_bytes(bytes(blob))
        code = self._enhance(tmp_path, path)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [
            f"error: truncated file: expected 4294967295 bytes of data chunk at byte offset "
            f"{data + 8}, got {len(blob) - data - 8}"
        ]

    def test_non_finite_float_wav_exits_1(self, tmp_path, capsys):
        # rejected when read, before any numpy warning from the chain
        path = tmp_path / "inf.wav"
        mixture = np.random.default_rng(3).uniform(-0.5, 0.5, (2, 4000))
        write_wav(path, mixture, 16000)
        blob = bytearray(path.read_bytes())  # write_wav refuses inf: store it as mixture[1, 1234]
        start = blob.index(b"data") + 8 + 4 * (2 * 1234 + 1)
        blob[start : start + 4] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(blob))
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

    @pytest.mark.parametrize(
        "mode, causes",
        [
            # gone after the handshake, the child may still take the first frame into the
            # pipe buffer, so either end of file can be the one seen
            ("exit", ("pipe closed: ", "closed its output mid-frame")),
            ("exit_after_frame", ("closed its output mid-frame",)),
        ],
    )
    def test_external_child_gone_exits_2(self, tmp_path, scene_dir, capsys, mode, causes):
        stub = os.path.join(os.path.dirname(__file__), "external_stub.py")
        code = self._enhance(tmp_path, scene_dir, [f"stage1 = external:{sys.executable} {stub} {mode}"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(tuple(f"error: external estimator {c}" for c in causes))
        assert not (tmp_path / "out.wav").exists()

    def test_beamformer_state_error_exits_2(self, tmp_path, scene_dir, capsys, monkeypatch):
        rls_step = beamformer.OnlineMcwf._rls_step

        def corrupt(self, y, s):
            self._state[:-1] *= -1.0  # a negative-definite inverse fails the RLS denominator check
            return rls_step(self, y, s)

        monkeypatch.setattr(beamformer.OnlineMcwf, "_rls_step", corrupt)
        code = self._enhance(tmp_path, scene_dir, ["beamformer = woodbury"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: RLS denominator is not positive; inverse is no longer positive-definite"]

    @pytest.mark.parametrize("noise, forgetting", [(True, 1e-300), (False, 1e-8)], ids=["noise-1e-300", "scene-1e-8"])
    def test_forgetting_that_breaks_the_state_exits_2(self, tmp_path, scene_dir, capsys, noise, forgetting):
        # the state overflows on finite input: no numpy warning, and the input is not blamed
        mixture = _write_noise_wav(tmp_path / "noise.wav") if noise else scene_dir / "mixture.wav"
        config = _write_config(
            tmp_path / "run.conf",
            [f"mixture = {mixture}", f"output = {tmp_path / 'out.wav'}", "beamformer = woodbury", f"forgetting = {forgetting!r}"],
        )
        capsys.readouterr()
        assert main(["enhance", "--config", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(("error: RLS denominator", "error: non-finite RLS state"))
        assert not (tmp_path / "out.wav").exists()

    def test_out_of_memory_exits_2(self, tmp_path, scene_dir, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
        code = self._enhance(tmp_path, scene_dir, [])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: out of memory: Unable to allocate 7.28 TiB for an array"]
        assert not (tmp_path / "out.wav").exists()

    def test_bare_out_of_memory_prints_no_empty_cause(self, tmp_path, scene_dir, capsys, monkeypatch):
        # Python's own allocations raise MemoryError() with no text
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
        code = self._enhance(tmp_path, scene_dir, [])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory\n"


class TestLatencyCheckCommand:
    def test_reports_paper_latency_column(self, capsys):
        assert main(["latency-check"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("frames_ahead=")]
        assert len(lines) == 4
        for line, ms in zip(lines, ("4", "2", "0", "-2")):
            assert f"measured={ms} ms" in line
            assert line.endswith("PASS")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                [],
                "frames_ahead=0 expected=4 ms measured=4 ms timing=ok impulse=ok causality=ok PASS\n"
                "frames_ahead=1 expected=2 ms measured=2 ms timing=ok impulse=ok causality=ok PASS\n"
                "frames_ahead=2 expected=0 ms measured=0 ms timing=ok impulse=ok causality=ok PASS\n"
                "frames_ahead=3 expected=-2 ms measured=-2 ms timing=ok impulse=ok causality=ok PASS\n",
            ),
            (
                ["--frames-ahead", "18", "40"],
                "frames_ahead=18 expected=-32 ms measured=-32 ms timing=ok impulse=ok causality=ok PASS\n"
                "frames_ahead=40 expected=-76 ms measured=-76 ms timing=ok impulse=ok causality=ok PASS\n",
            ),
        ],
        ids=["default-horizons", "large-horizons"],
    )
    def test_stdout_bytes(self, capsys, argv, expected):
        assert main(["latency-check", *argv]) == 0
        assert capsys.readouterr().out == expected

    def test_look_ahead_stage_fails_and_exits_2(self, capsys, monkeypatch):
        read = estimators.TableEstimator.estimate_block
        monkeypatch.setattr(
            estimators.TableEstimator,
            "estimate_block",
            lambda self, mixture, stage1, beamformed, t0: read(self, mixture, stage1, beamformed, t0 + 1),
        )
        assert main(["latency-check", "--frames-ahead", "0", "1", "3"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert "impulse=BAD causality=BAD FAIL" in line


class TestErrorContract:
    """Each subcommand exits 1 on invalid input with one ``error:`` line and no traceback."""

    @pytest.mark.parametrize(
        "argv, config, cause",
        [
            (["windows", "--hop", "0"], None, "hop must be positive, got 0"),
            (["simulate", "--ref-mic", "7", "--channels", "6"], None, "ref_mic 7 out of range for 6 channels"),
            (["simulate", "--ref-mic", "-1"], None, "ref_mic -1 out of range for 6 channels"),
            (["simulate", "--duration", "0"], None, "a duration of 0.0 s at 16000 Hz gives no samples"),
            (["simulate", "--snr-db=4000"], None, "snr_db 4000.0 gives a noise power ratio out of float range"),
            (["simulate", "--snr-db=-4000"], None, "snr_db -4000.0 gives a noise power ratio out of float range"),
            (["simulate", "--sample-rate", "0"], None, "a duration of 1.0 s at 0 Hz gives no samples"),
            (
                ["simulate", "--sample-rate", "200000000", "--duration", "0.0005"],
                None,
                "sample rate 200000000 Hz with 6 channels of 32 bits does not fit a WAV header",
            ),
            (
                ["simulate", "--channels", "16384", "--duration", "0.001"],
                None,
                "16384 channels of 32 bits do not fit a WAV header",
            ),
            (["enhance"], ["ref_mic = 9"], "ref_mic 9 out of range for 6 channels"),
            (
                ["enhance"],
                ["stage1 = passthrough:mixture:1"],
                "stage1: passthrough source must be one of ('mixture', 'stage1', 'beamformer'), got 'mixture:1'",
            ),
            (["latency-check", "--frames-ahead", "-1"], None, "frames_ahead must be >= 0, got -1"),
            (["windows", "--n-dft", "257"], None, "n_dft must be even, got 257"),
            (["simulate", "--seed", "-5"], None, "argument --seed: expected a non-negative integer, got '-5'"),
            (["enhance"], ["stage1 = external:"], "stage1: external estimator requires a command"),
            (["enhance"], ["stage1 = file:"], "stage1: file estimator requires a path"),
            (["latency-check", "--frames-ahead"], None, "argument --frames-ahead: expected at least one argument"),
            (["enhance"], ["sample_rate = 8000"], "mixture sample rate 16000 does not match configured 8000"),
            (["enhance"], ["seed = 3"], "unknown config key(s): seed"),
            (["enhance"], ["beamformer = off", "loading = 0"], "loading must be finite and > 0, got 0.0"),
            (["enhance"], ["beamformer = off", "forgetting = 1.5"], "forgetting must be in (0, 1], got 1.5"),
            (["windows", "--tukey-alpha", "0.25"], None, "unrecognized arguments: --tukey-alpha 0.25"),
            (["enhance"], ["tukey_alpha = 0.25"], "unknown config key(s): tukey_alpha"),
            (["enhance"], ["= 5"], "line 3: empty key"),
            (["enhance"], ["sample_rate = 0"], "sample_rate: must be >= 1, got 0"),
            (["enhance"], ["stage1 = none"], "stage1: an estimator is required"),
            (["simulate", "--duration", "abc"], None, "argument --duration: expected a finite number, got 'abc'"),
            (["simulate", "--seed", "abc"], None, "argument --seed: expected a non-negative integer, got 'abc'"),
            (["simulate", "--duration", "1e305"], None, "a duration of 1e+305 s at 16000 Hz gives inf samples"),
            (
                ["simulate", "--sample-rate", "444"],
                None,
                "a 444-sample (1 s) signal at 444 Hz has no frequency bin in the source band 200-199.8 Hz",
            ),
            (
                ["simulate", "--duration", "0.0001"],
                None,
                "a 2-sample (0.000125 s) signal at 16000 Hz has no frequency bin in the source band 200-7200 Hz",
            ),
            (
                ["simulate", "--sample-rate", "8000", "--duration", "0.0002"],
                None,
                "a 2-sample (0.00025 s) signal at 8000 Hz has no frequency bin in the source band 200-3600 Hz",
            ),
        ],
        ids=[
            "windows-hop-0",
            "simulate-ref-mic-past-channels",
            "simulate-negative-ref-mic",
            "simulate-duration-0",
            "simulate-snr-ratio-overflows",
            "simulate-snr-ratio-underflows",
            "simulate-sample-rate-0",
            "simulate-byte-rate-past-wav-header",
            "simulate-block-size-past-wav-header",
            "enhance-ref-mic-past-channels",
            "enhance-passthrough-channel-field",
            "latency-check-negative-horizon",
            "windows-odd-n-dft",
            "simulate-negative-seed",
            "enhance-external-without-a-command",
            "enhance-file-without-a-path",
            "latency-check-no-horizons",
            "enhance-mixture-rate-past-config",
            "enhance-seed-is-no-key",
            "enhance-zero-loading-without-a-beamformer",
            "enhance-forgetting-past-1-without-a-beamformer",
            "windows-tukey-alpha-is-no-flag",
            "enhance-tukey-alpha-is-no-key",
            "enhance-empty-key",
            "enhance-sample-rate-0",
            "enhance-stage1-none",
            "simulate-duration-not-a-number",
            "simulate-seed-not-a-number",
            "simulate-duration-past-a-float-sample-count",
            "simulate-source-band-below-200-hz",
            "simulate-too-short-for-a-band-bin",
            "simulate-8-khz-too-short-for-a-band-bin",
        ],
    )
    def test_invalid_input_exits_1_with_one_line(self, tmp_path, request, capsys, argv, config, cause):
        out_dir = tmp_path / "out"
        if argv[0] == "simulate":
            argv = [*argv, "--out-dir", str(out_dir)]
        if config is not None:
            scene_dir = request.getfixturevalue("scene_dir")
            capsys.readouterr()
            lines = [f"mixture = {scene_dir / 'mixture.wav'}", f"output = {out_dir / 'x.wav'}", *config]
            argv = [*argv, "--config", _write_config(tmp_path / "run.conf", lines)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {cause}"]
        assert not out_dir.exists()

    def test_multichannel_reference_exits_1(self, tmp_path, scene_dir, capsys):
        # a 6-channel reference must not be read as its channel 0
        out_wav = tmp_path / "out.wav"
        lines = [
            f"mixture = {scene_dir / 'mixture.wav'}",
            f"reference = {scene_dir / 'mixture.wav'}",
            f"output = {out_wav}",
            "stage1 = oracle_complex",
        ]
        capsys.readouterr()
        assert main(["enhance", "--config", _write_config(tmp_path / "run.conf", lines)]) == 1
        cause = "reference must be one channel, got shape (6, 8000)"
        assert capsys.readouterr().err.splitlines() == [f"error: {cause}"]
        assert not out_wav.exists()

    def test_reference_sample_rate_mismatch_exits_1(self, tmp_path, scene_dir, capsys):
        out_wav, reference = tmp_path / "out.wav", tmp_path / "ref8k.wav"
        samples, _ = read_wav(scene_dir / "reference.wav")
        write_wav(reference, samples, 8000)
        lines = [f"mixture = {scene_dir / 'mixture.wav'}", f"reference = {reference}", f"output = {out_wav}"]
        capsys.readouterr()
        assert main(["enhance", "--config", _write_config(tmp_path / "run.conf", lines)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: reference sample rate 8000 does not match 16000"]
        assert not out_wav.exists()

    def test_noise_scale_past_float32_exits_1_without_a_mixture(self, tmp_path, capsys):
        # -800 dB asks for a finite noise scale of about 1e40, which float32 cannot hold
        out_dir = tmp_path / "out"
        assert main(["simulate", "--out-dir", str(out_dir), "--duration", "0.01", "--snr-db=-800"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write a sample of magnitude ")
        assert err[0].endswith(" at 32 bits")
        assert not out_dir.exists()

    def test_failed_report_write_leaves_no_wav(self, tmp_path, scene_dir, capsys):
        out_wav, report_path = tmp_path / "out.wav", tmp_path / "missing" / "r.json"
        lines = [f"mixture = {scene_dir / 'mixture.wav'}", f"output = {out_wav}", f"report = {report_path}"]
        capsys.readouterr()
        assert main(["enhance", "--config", _write_config(tmp_path / "run.conf", lines)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [Errno 2] No such file or directory: ")
        assert not out_wav.exists()


class TestErrorContractProperties:
    """Any input in these ranges ends in a documented exit code with at most one
    ``error:`` line. Tier-1 turns a leaked numpy ``RuntimeWarning`` into a failure."""

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue().splitlines()

    @settings(max_examples=40, deadline=None)
    @given(
        sample_rate=st.integers(1, 48000),
        duration=st.floats(1e-5, 0.02),
        channels=st.integers(1, 4),
        noises=st.integers(1, 3),
    )
    @example(sample_rate=444, duration=0.02, channels=2, noises=1)
    @example(sample_rate=16000, duration=1e-4, channels=2, noises=1)
    def test_simulate(self, sample_rate, duration, channels, noises):
        with tempfile.TemporaryDirectory() as tmp:
            code, err = self._run(
                [
                    "simulate",
                    "--out-dir", os.path.join(tmp, "scene"),
                    "--sample-rate", str(sample_rate),
                    "--duration", repr(duration),
                    "--channels", str(channels),
                    "--noises", str(noises),
                ]
            )
        assert (code, err) == (0, []) or (code == 1 and len(err) == 1 and err[0].startswith("error: "))

    @pytest.fixture(scope="class")
    def noise_wav(self, tmp_path_factory):
        return _write_noise_wav(tmp_path_factory.mktemp("noise") / "noise.wav")

    @settings(max_examples=40, deadline=None)
    @given(forgetting=st.floats(0.0, 1.0, exclude_min=True))
    @example(forgetting=1e-300)
    def test_woodbury_enhance_forgetting(self, noise_wav, forgetting):
        with tempfile.TemporaryDirectory() as tmp:
            config = _write_config(
                pathlib.Path(tmp) / "run.conf",
                [
                    f"mixture = {noise_wav}",
                    f"output = {os.path.join(tmp, 'out.wav')}",
                    "beamformer = woodbury",
                    f"forgetting = {forgetting!r}",
                ],
            )
            code, err = self._run(["enhance", "--config", config])
        assert code in (0, 2) and len(err) <= 1


class TestArgumentHandling:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["windows", "--no-such-flag"]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["transmogrify"]) == 1

    def test_calls_in_one_process_reuse_one_parser(self, capsys, monkeypatch):
        parser = cli.build_parser()
        seen = []
        parse_args = parser.parse_args

        def counting(argv):
            seen.append(argv)
            return parse_args(argv)

        monkeypatch.setattr(parser, "parse_args", counting)
        assert main(["windows", "--no-such-flag"]) == 1
        assert main(["windows", "--format", "json"]) == 0
        assert main(["transmogrify"]) == 1
        assert cli.build_parser() is parser
        assert len(seen) == 3
