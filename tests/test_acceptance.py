"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[acceptance] ... PASS`` line on success (visible
with ``pytest -s`` or ``pytest -v -rA``); a failure fails the test the
normal pytest way.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from dualwin.beamformer import MODES, OnlineMcwf, offline_mcwf
from dualwin.cli import main
from dualwin.estimators import EstimatorKind
from dualwin.framing import FrameParams, analyze
from dualwin.metrics import _LOSS_STFT, compute_metrics, si_sdr
from dualwin.pipeline import PipelineConfig, audit_latency, run_pipeline
from dualwin.simulate import make_scene
from dualwin.windows import (
    ASQRT_HANN,
    RECT,
    SQRT_HANN,
    TUKEY,
    make_analysis_window,
    make_synthesis_window,
    verify_cola,
)

ALL_KINDS = (SQRT_HANN, ASQRT_HANN, RECT, TUKEY)
GEOMETRIES = ((256, 64, 32), (256, 32, 16), (128, 64, 32))

# regression floors pinned from the first run of criterion 6
# (measured minima over the fixed-seed suite: 2.653 dB and 4.052 dB)
PINNED_MASK_OVER_PASSTHROUGH_DB = 2.6
PINNED_BEAMFORMED_OVER_MIXTURE_DB = 4.0


@contextlib.contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_criterion_1_perfect_reconstruction():
    with _criterion("1 perfect reconstruction"):
        rng = np.random.default_rng(100)
        x = rng.standard_normal(16000)  # 1 s of white noise
        start = time.perf_counter()
        for iws, ows, hop in GEOMETRIES:
            params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=256)
            for kind in ALL_KINDS:
                cfg = PipelineConfig(params=params, window=kind)
                out, _ = run_pipeline(cfg, x)
                rel = np.linalg.norm(out - x) / np.linalg.norm(x)
                assert rel < 1e-10, (kind.name, (iws, ows, hop), rel)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_synthesis_window_discriminates():
    with _criterion("2 COLA check discriminates"):
        params = FrameParams()
        g_tukey = make_analysis_window(TUKEY, params)
        g_rect = make_analysis_window(RECT, params)
        matched = verify_cola(g_tukey, make_synthesis_window(g_tukey, params), params)
        mismatched = verify_cola(g_tukey, make_synthesis_window(g_rect, params), params)
        assert matched < 1e-10
        assert mismatched > 1e-3


def test_criterion_3_woodbury_equivalence():
    with _criterion("3 running RLS inverse vs direct inverse"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for p in (1, 2, 6):
            # the running RLS inverse of the online MCWF, (P, P) at its one bin
            eps = 1e-6
            bf = OnlineMcwf(p, 1, loading=eps)
            acc = eps * np.eye(p, dtype=complex)
            for _ in range(100):
                y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
                bf.update(y[:, None], np.zeros(1, complex))
                acc += np.outer(y, y.conj())
            assert np.max(np.abs(bf._state[:-1, :, 0] - np.linalg.inv(acc))) < 1e-8
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", MODES)
def test_criterion_4_online_offline_agreement(mode):
    with _criterion(f"4 online/offline MCWF agreement ({mode})"):
        rng = np.random.default_rng(102)
        t_frames, p, f_bins = 50, 6, 129
        Y = rng.standard_normal((t_frames, p, f_bins)) + 1j * rng.standard_normal(
            (t_frames, p, f_bins)
        )
        S = rng.standard_normal((t_frames, f_bins)) + 1j * rng.standard_normal(
            (t_frames, f_bins)
        )
        bf = OnlineMcwf(p, f_bins, mode=mode)
        for t in range(t_frames):
            w_online = bf.update(Y[t], S[t])
        w_offline, _ = offline_mcwf(Y, S)
        assert np.max(np.abs(w_online - w_offline)) < 1e-8  # every frequency


def test_criterion_5_latency_bookkeeping(capsys):
    with _criterion("5 latency bookkeeping"):
        checks = [audit_latency(k) for k in range(4)]
        assert [c.measured_ms for c in checks] == [4.0, 2.0, 0.0, -2.0]
        for c in checks:
            assert c.timing_ok and c.impulse_ok
            assert c.causality_ok  # zeroed future never changes released samples
        assert main(["latency-check"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4


def test_criterion_6_oracle_enhancement_ordering():
    with _criterion("6 oracle enhancement ordering"):
        params = FrameParams()
        configs = {
            "passthrough": PipelineConfig(params=params),
            "mask": PipelineConfig(params=params, stage1=EstimatorKind("oracle_mag_mask")),
            "complex": PipelineConfig(params=params, stage1=EstimatorKind("oracle_complex")),
            "beamformed": PipelineConfig(
                params=params,
                stage1=EstimatorKind("oracle_mag_mask"),
                beamformer="woodbury",
                stage2=EstimatorKind("passthrough", source="beamformer"),
            ),
        }
        for seed in range(10):
            scene = make_scene(seed=seed, channels=6, snr_db=0.0)
            scores = {}
            for name, cfg in configs.items():
                out, _ = run_pipeline(cfg, scene.mixture, scene.target_direct)
                scores[name] = si_sdr(out, scene.target_direct)
            mixture_score = si_sdr(scene.mixture[scene.ref_mic], scene.target_direct)
            assert scores["complex"] >= scores["mask"] >= scores["passthrough"], (seed, scores)
            assert scores["complex"] >= 40.0
            assert scores["beamformed"] > mixture_score, (seed, scores, mixture_score)
            assert scores["mask"] - scores["passthrough"] >= PINNED_MASK_OVER_PASSTHROUGH_DB
            assert scores["beamformed"] - mixture_score >= PINNED_BEAMFORMED_OVER_MIXTURE_DB


def test_criterion_7_metric_sanity():
    with _criterion("7 metric sanity"):
        rng = np.random.default_rng(103)
        ref = rng.standard_normal(400)
        est = ref + 0.2 * rng.standard_normal(400)
        base = si_sdr(est, ref)
        for c in (2.0, 0.5, 4096.0, -8.0):  # binary scales: exact to floating point
            assert si_sdr(c * est, ref) == base
        assert compute_metrics(ref, ref).ri_mag_loss == 0.0
        s_hat, s = analyze(est, *_LOSS_STFT), analyze(ref, *_LOSS_STFT)
        naive = math.fsum(  # the bins one at a time, added exactly
            abs(s_hat[t, f].real - s[t, f].real)
            + abs(s_hat[t, f].imag - s[t, f].imag)
            + abs(abs(s_hat[t, f]) - abs(s[t, f]))
            for t in range(s.shape[0])
            for f in range(s.shape[1])
        )
        # within 16 ulps of the exact sum: the sum runs over thousands of bins,
        # and its ulp is above the old absolute 1e-12
        assert abs(compute_metrics(est, ref).ri_mag_loss - naive) <= 16 * math.ulp(naive)
        assert compute_metrics(ref, ref).wav_mag_loss == 0.0


def test_criterion_8_determinism(tmp_path):
    with _criterion("8 enhance determinism"):
        scene_dir = tmp_path / "scene"
        assert main(["simulate", "--out-dir", str(scene_dir), "--seed", "9", "--duration", "0.5"]) == 0
        blobs = []
        for name in ("one.wav", "two.wav"):
            config = tmp_path / f"{name}.conf"
            config.write_text(
                "\n".join(
                    [
                        f"mixture = {scene_dir / 'mixture.wav'}",
                        f"reference = {scene_dir / 'reference.wav'}",
                        f"output = {tmp_path / name}",
                        "stage1 = oracle_mag_mask",
                        "beamformer = woodbury",
                    ]
                )
                + "\n"
            )
            assert main(["enhance", "--config", str(config)]) == 0
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]
