import numpy as np
import pytest

from dualwin.beamformer import (
    DEFAULT_LOADING,
    MODES,
    BeamformerStateError,
    OnlineMcwf,
    apply_filter,
    offline_mcwf,
)
from dualwin.framing import FrameParams, analyze, build_windows
from dualwin.simulate import make_scene
from dualwin.windows import TUKEY


def _random_spectrogram(rng, t, p, f):
    return rng.standard_normal((t, p, f)) + 1j * rng.standard_normal((t, p, f))


def _solved_filters(Y, S, loading=DEFAULT_LOADING, forgetting=1.0):
    """Reference for the RLS recursion: accumulate the loaded, discounted
    normal equations of (T, P, F) mixture and (T, F) estimate, and solve
    them after every frame. Yields the (F, P) filter per frame. Frame t puts
    back the loading that forgetting discounts, (1 - forgetting) * loading
    * P on diagonal entry t mod P, as the recursion's pseudo-observation does."""
    _, p, f_bins = Y.shape
    phi = np.tile(loading * np.eye(p, dtype=complex), (f_bins, 1, 1))
    rhs = np.zeros((f_bins, p), complex)
    for t, (y, s) in enumerate(zip(Y, S)):
        phi = forgetting * phi + np.einsum("pf,qf->fpq", y, y.conj())
        phi[:, t % p, t % p] += (1.0 - forgetting) * loading * p
        rhs = forgetting * rhs + y.T * s.conj()[:, None]
        yield np.linalg.solve(phi, rhs[..., None])[..., 0]


class TestApplyFilter:
    def test_one_hot_filter_selects_channel(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        w = np.zeros((9, 4), complex)
        w[:, 2] = 1.0
        np.testing.assert_array_equal(apply_filter(w, Y), Y[2])

    def test_zero_filter_gives_zero_frame(self):
        Y = np.ones((3, 5), complex)
        np.testing.assert_array_equal(apply_filter(np.zeros((5, 3), complex), Y), np.zeros(5))

    def test_matches_per_bin_dot_product(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((5, 17)) + 1j * rng.standard_normal((5, 17))
        w = rng.standard_normal((17, 5)) + 1j * rng.standard_normal((17, 5))
        out = apply_filter(w, Y)
        naive = np.array([np.vdot(w[f], Y[:, f]) for f in range(17)])
        np.testing.assert_allclose(out, naive, atol=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: apply_filter(np.zeros((5, 2)), np.zeros((3, 5))),
            "filter shape (5, 2) does not match frame shape (3, 5)",
        ),
        (
            lambda: offline_mcwf(np.zeros((4, 5)), np.zeros((4, 5))),
            "mixture (T,P,F) and estimate (T,F) mismatch: (4, 5) vs (4, 5)",
        ),
    ],
    ids=["apply-filter-shapes", "offline-mcwf-2d-mixture"],
)
def test_shape_mismatch_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestOfflineMcwf:
    def test_single_channel_self_projection(self):
        rng = np.random.default_rng(14)
        Y = _random_spectrogram(rng, 16, 1, 7)
        w, out = offline_mcwf(Y, Y[:, 0, :], loading=0.0)
        np.testing.assert_allclose(w, np.ones((7, 1)), atol=1e-12)
        np.testing.assert_allclose(out, Y[:, 0, :], atol=1e-12)

    def test_single_channel_scalar_least_squares(self):
        rng = np.random.default_rng(15)
        Y = _random_spectrogram(rng, 16, 1, 7)
        c = 0.8 - 1.7j
        w, out = offline_mcwf(Y, c * Y[:, 0, :], loading=0.0)
        np.testing.assert_allclose(w, np.full((7, 1), np.conj(c)), atol=1e-12)
        np.testing.assert_allclose(out, c * Y[:, 0, :], atol=1e-12)

    def test_matches_dense_least_squares_oracle(self):
        # steered source in noise, P=2, T=8; compare with a Tikhonov
        # least-squares solve of the projection problem per frequency
        rng = np.random.default_rng(16)
        t_frames, p, f_bins = 8, 2, 5
        eps = 1e-6
        steer = rng.standard_normal((p, f_bins)) + 1j * rng.standard_normal((p, f_bins))
        src = rng.standard_normal((t_frames, f_bins)) + 1j * rng.standard_normal((t_frames, f_bins))
        noise = 0.3 * _random_spectrogram(rng, t_frames, p, f_bins)
        Y = steer[None, :, :] * src[:, None, :] + noise
        target = steer[0][None, :] * src  # target signal at channel 0
        w, out = offline_mcwf(Y, target, loading=eps)

        for f in range(f_bins):
            rows = np.vstack([Y[:, :, f].conj(), np.sqrt(eps) * np.eye(p)])
            rhs = np.concatenate([target[:, f].conj(), np.zeros(p)])
            w_lstsq, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
            np.testing.assert_allclose(w[f], w_lstsq, atol=1e-8)

        # beamforming reduces the error against the target below both raw channels
        err_bf = np.linalg.norm(out - target)
        for ch in range(p):
            assert err_bf < np.linalg.norm(Y[:, ch, :] - target)

    def test_one_hot_optimality_when_estimate_is_a_channel(self):
        rng = np.random.default_rng(17)
        Y = _random_spectrogram(rng, 20, 3, 6)
        q = 1
        w, out = offline_mcwf(Y, Y[:, q, :], loading=1e-6)
        np.testing.assert_allclose(out, Y[:, q, :], atol=1e-5)


class TestOnlineMcwf:
    def test_single_frame_single_channel_formula(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        s = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        eps = 1e-6
        bf = OnlineMcwf(1, 5, loading=eps)
        w = bf.update(y[None, :], s)
        expected = y * s.conj() / (eps + np.abs(y) ** 2)
        np.testing.assert_allclose(w[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 6])
    def test_inverse_block_matches_direct_inverse(self, p):
        # 100 RLS steps from (eps*I)^-1 against inverting the accumulated
        # loaded covariance directly; the inverse does not depend on the target
        rng = np.random.default_rng(10 + p)
        eps = 1e-6
        bf = OnlineMcwf(p, 1, loading=eps)
        acc = eps * np.eye(p, dtype=complex)
        for _ in range(100):
            y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            bf.update(y[:, None], np.zeros(1, complex))
            acc += np.outer(y, y.conj())
        assert np.max(np.abs(bf._state[:-1, :, 0] - np.linalg.inv(acc))) < 1e-8

    def test_lost_definiteness_raises(self):
        rng = np.random.default_rng(11)
        bf = OnlineMcwf(3, 5)
        bf.update(_random_spectrogram(rng, 1, 3, 5)[0], np.ones(5, complex))
        bf._state[:-1] *= -1  # a negative-definite inverse
        before = bf._state.tobytes()
        with pytest.raises(BeamformerStateError):
            bf.update(_random_spectrogram(rng, 1, 3, 5)[0], np.ones(5, complex))
        assert bf._state.tobytes() == before

    def test_nan_in_inverse_raises(self):
        # a NaN denominator fails the definiteness check as a negative one does
        rng = np.random.default_rng(12)
        bf = OnlineMcwf(3, 9)
        bf.update(_random_spectrogram(rng, 1, 3, 9)[0], np.ones(9, complex))
        bf._state[0, 0, 5] = np.nan
        before = bf._state.tobytes()
        with pytest.raises(BeamformerStateError):
            bf.update(_random_spectrogram(rng, 1, 3, 9)[0], np.ones(9, complex))
        assert bf._state.tobytes() == before

    def test_nan_in_the_filter_row_raises(self):
        # finite frames against a NaN filter: the state, not the input, is broken
        rng = np.random.default_rng(13)
        bf = OnlineMcwf(3, 9)
        bf.update(_random_spectrogram(rng, 1, 3, 9)[0], np.ones(9, complex))
        bf._state[-1, 1, 4] = np.nan
        before = bf._state.tobytes()
        with pytest.raises(BeamformerStateError, match="^non-finite RLS state: the recursion overflowed$"):
            bf.update(_random_spectrogram(rng, 1, 3, 9)[0], np.ones(9, complex))
        assert bf._t == 1 and bf._state.tobytes() == before

    def test_overflowed_denominator_raises(self):
        # finite frames of size 1e200 overflow y^H P y to +inf; 1 / sqrt(inf) would zero the
        # update and drop every frame without a word
        bf = OnlineMcwf(6, 129)
        before = bf._state.tobytes()
        for _ in range(50):
            with pytest.raises(BeamformerStateError, match="^RLS denominator overflowed$"):
                bf.update(np.full((6, 129), 1e200, complex), np.full(129, 1e200, complex))
        assert bf._t == 0 and bf._state.tobytes() == before

    def test_loading_step_on_an_overflowed_inverse_raises(self):
        # a silent frame passes the RLS step, whose division by the forgetting factor then
        # overflows one diagonal entry of the inverse; the loading step on that column refuses
        bf = OnlineMcwf(3, 5, forgetting=0.5)
        bf._state[0, 0, 2] = 1.5e308
        with pytest.raises(BeamformerStateError, match="^RLS denominator overflowed$"):
            bf.update(np.zeros((3, 5), complex), np.ones(5, complex))
        assert bf._t == 1 and bf._state[0, 0, 2] == np.inf  # the RLS step wrote the frame
        before = bf._state.tobytes()  # the loading step's check comes before its writes
        # under update's errstate: inf times the load is a complex product, its imag part NaN
        with np.errstate(all="ignore"), pytest.raises(BeamformerStateError, match="overflowed"):
            bf._load_step(0)
        assert bf._state.tobytes() == before

    def test_zero_estimate_stream_keeps_zero_filter(self):
        rng = np.random.default_rng(19)
        bf = OnlineMcwf(3, 4, mode="woodbury")
        for _ in range(10):
            y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            w = bf.update(y, np.zeros(4, complex))
            np.testing.assert_array_equal(w, np.zeros((4, 3)))

    @pytest.mark.parametrize("mode", MODES)
    def test_final_filter_matches_offline(self, mode):
        rng = np.random.default_rng(20)
        Y = _random_spectrogram(rng, 50, 4, 9)
        S = rng.standard_normal((50, 9)) + 1j * rng.standard_normal((50, 9))
        bf = OnlineMcwf(4, 9, mode=mode)
        for t in range(50):
            w = bf.update(Y[t], S[t])
        w_offline, _ = offline_mcwf(Y, S)
        assert np.max(np.abs(w - w_offline)) < 1e-8

    def test_frequency_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        Y = _random_spectrogram(rng, 12, 2, 8)
        S = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
        perm = rng.permutation(8)
        bf_a = OnlineMcwf(2, 8)
        bf_b = OnlineMcwf(2, 8)
        for t in range(12):
            w_a = bf_a.update(Y[t], S[t])
            w_b = bf_b.update(Y[t][:, perm], S[t][perm])
        np.testing.assert_array_equal(w_a[perm], w_b)

    def test_forgetting_factor_matches_weighted_batch(self):
        rng = np.random.default_rng(24)
        lam, t_frames, p, f_bins, eps = 0.5, 6, 2, 3, 1e-6
        Y = _random_spectrogram(rng, t_frames, p, f_bins)
        S = rng.standard_normal((t_frames, f_bins)) + 1j * rng.standard_normal((t_frames, f_bins))
        *_, w = _solved_filters(Y, S, loading=eps, forgetting=lam)
        for f in range(f_bins):
            phi = lam**t_frames * eps * np.eye(p, dtype=complex)
            rhs = np.zeros(p, complex)
            for t in range(t_frames):
                weight = lam ** (t_frames - 1 - t)
                phi += weight * np.outer(Y[t, :, f], Y[t, :, f].conj())
                phi[t % p, t % p] += weight * (1 - lam) * eps * p  # the loading put back at frame t
                rhs += weight * Y[t, :, f] * np.conj(S[t, f])
            np.testing.assert_allclose(w[f], np.linalg.solve(phi, rhs), atol=1e-10)

    def test_woodbury_mode_tracks_direct_mode_with_forgetting(self):
        rng = np.random.default_rng(25)
        kwargs = dict(loading=1e-6, forgetting=0.9)
        Y = np.empty((40, 3, 5), complex)
        S = np.empty((40, 5), complex)
        for t in range(40):  # the draw order of the frame-by-frame stream
            Y[t] = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            S[t] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        bf = OnlineMcwf(3, 5, **kwargs)
        for y, s in zip(Y, S):
            w_w = bf.update(y, s)
        *_, w_d = _solved_filters(Y, S, **kwargs)
        assert np.max(np.abs(w_d - w_w)) < 1e-8

    @pytest.mark.parametrize("forgetting", [1.0, 0.99, 0.95])
    def test_long_stream_woodbury_output_tracks_direct_mode(self, forgetting):
        # 2000 frames (4 s) of a 6-mic scene. Unless the recursion keeps its
        # inverse Hermitian, it drifts from the direct solve, and at
        # forgetting 0.99 loses definiteness, before the end of the stream.
        params = FrameParams()
        g, _ = build_windows(TUKEY, params)
        scene = make_scene(seed=11, duration_s=2000 * params.hop / params.sample_rate)
        Y = analyze(scene.mixture, g, params)
        S = analyze(scene.target_direct, g, params)
        bf = OnlineMcwf(6, params.n_bins, forgetting=forgetting)
        woodbury = np.array([apply_filter(bf.update(y, s), y) for y, s in zip(Y, S)])
        filters = _solved_filters(Y, S, forgetting=forgetting)
        direct = np.array([apply_filter(w, y) for w, y in zip(filters, Y)])
        assert len(direct) == 2000
        assert np.linalg.norm(woodbury - direct) < 1e-8 * np.linalg.norm(direct)

    def test_loading_survives_a_long_silence_under_forgetting(self):
        # 500 frames of a 6-mic scene, 12000 silent frames, 200 more frames: forgetting
        # discounted the loading along with the data, so the silence broke the inverse
        params = FrameParams()
        g, _ = build_windows(TUKEY, params)
        scene = make_scene(seed=7, duration_s=700 * params.hop / params.sample_rate)
        Y, S = analyze(scene.mixture, g, params), analyze(scene.target_direct, g, params)
        Y = np.concatenate([Y[:500], np.zeros((12000,) + Y.shape[1:]), Y[500:700]])
        S = np.concatenate([S[:500], np.zeros((12000,) + S.shape[1:]), S[500:700]])
        bf = OnlineMcwf(6, params.n_bins, forgetting=0.99)
        woodbury = np.array([apply_filter(bf.update(y, s), y) for y, s in zip(Y, S)])
        assert np.isfinite(woodbury).all() and np.isfinite(bf._state).all()
        filters = _solved_filters(Y, S, forgetting=0.99)
        direct = np.array([apply_filter(w, y) for w, y in zip(filters, Y)])
        assert len(direct) == 12700
        assert np.linalg.norm(woodbury - direct) < 1e-8 * np.linalg.norm(direct)

    def test_noise_free_single_source_under_forgetting(self):
        # one coherent source (a fixed steering vector per bin) excites one direction of
        # six; the other five kept no loading and lost definiteness within 400 frames
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 129)) + 1j * rng.standard_normal((6, 129))
        bf = OnlineMcwf(6, 129, forgetting=0.95)
        for _ in range(2000):
            s = rng.standard_normal(129) + 1j * rng.standard_normal(129)
            w = bf.update(a * s, a[0] * s)
        assert np.isfinite(w).all() and np.isfinite(bf._state).all()

    @pytest.mark.parametrize("forgetting", [1.0, 0.95])
    def test_inverse_exactly_hermitian_after_each_resymmetrization(self, forgetting):
        rng = np.random.default_rng(30)
        p, every = 4, OnlineMcwf._SYMMETRIZE_EVERY
        bf = OnlineMcwf(p, 9, forgetting=forgetting)
        for t in range(1, 4 * every + 1):
            bf.update(_random_spectrogram(rng, 1, p, 9)[0], _random_spectrogram(rng, 1, 1, 9)[0, 0])
            if t % every == 0:
                inv = bf._state[:p]
                assert np.array_equal(inv, inv.conj().transpose(1, 0, 2)), t

    def test_returned_filter_never_changes(self):
        rng = np.random.default_rng(31)
        bf = OnlineMcwf(3, 5)
        returned = []
        for _ in range(40):
            w = bf.update(_random_spectrogram(rng, 1, 3, 5)[0], _random_spectrogram(rng, 1, 1, 5)[0, 0])
            returned.append((w, w.copy()))
        for w, snapshot in returned:
            np.testing.assert_array_equal(w, snapshot)

    def test_rejects_non_finite_and_bad_shapes(self):
        bf = OnlineMcwf(2, 3)
        bad = np.full((2, 3), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            bf.update(bad, np.zeros(3, complex))
        with pytest.raises(ValueError, match="shape"):
            bf.update(np.zeros((3, 3), complex), np.zeros(3, complex))
        # one NaN or inf in y or in s, on a fresh filter (w = 0) and after some
        # frames; nothing in the state may move
        rng = np.random.default_rng(29)
        for warm in (0, 3):
            bf = OnlineMcwf(2, 3)
            for _ in range(warm):
                bf.update(_random_spectrogram(rng, 1, 2, 3)[0], _random_spectrogram(rng, 1, 1, 3)[0, 0])
            # the whole stacked state: inverse rows and filter row
            before = (bf._t, bf._state.copy())
            for bad_y in (True, False):
                for value in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
                    y = _random_spectrogram(rng, 1, 2, 3)[0]
                    s = _random_spectrogram(rng, 1, 1, 3)[0, 0]
                    target = y if bad_y else s
                    target.flat[rng.integers(target.size)] = value
                    # the check computes with the bad value (0 * inf) and must not warn
                    with pytest.raises(ValueError, match="non-finite values in beamformer update"):
                        bf.update(y, s)
                    assert bf._t == before[0]
                    assert np.array_equal(bf._state, before[1])

    def test_constructor_validation(self):
        for mode in ("mvdr", "direct"):
            with pytest.raises(ValueError, match="mode"):
                OnlineMcwf(2, 3, mode=mode)
        for loading in (0.0, -1.0, np.inf, np.nan, 1e-310):
            with pytest.raises(ValueError, match="loading"):
                OnlineMcwf(2, 3, loading=loading)
        for stride in (0, 2):
            with pytest.raises(ValueError, match="update_stride must be 1"):
                OnlineMcwf(2, 3, update_stride=stride)
        with pytest.raises(ValueError):
            OnlineMcwf(2, 3, forgetting=1.5)
