import pytest

from dualwin.config import build_job, parse_pairs
from dualwin.estimators import EstimatorKind
from dualwin.pipeline import ConfigError, PipelineConfig


def _job(text):
    base = "mixture = mix.wav\noutput = out.wav\n"
    return build_job(parse_pairs(base + text))


class TestParsePairs:
    def test_comments_and_blank_lines(self):
        pairs = parse_pairs("# header\n\nseed = 3  # inline\n")
        assert pairs == {"seed": "3"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pairs("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_pairs("just some words\n")


class TestBuildJob:
    def test_defaults(self):
        job = _job("")
        p = job.pipeline.params
        assert (p.iws, p.ows, p.hop, p.n_dft, p.sample_rate) == (256, 64, 32, 256, 16000)
        assert job.pipeline.window.name == "tukey"
        assert job.pipeline.stage1.kind == "passthrough"
        assert job.pipeline.stage2 is None
        assert job.pipeline.beamformer is None
        assert job.bit_depth == 32
        assert job.pipeline == PipelineConfig()  # loading, forgetting, ref_mic too

    def test_ms_and_samples_units_agree(self):
        a = _job("iws_ms = 16\nows_ms = 4\nhop_ms = 2\n").pipeline.params
        b = _job("iws_samples = 256\nows_samples = 64\nhop_samples = 32\n").pipeline.params
        assert a == b

    def test_both_units_for_one_key_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            _job("iws_ms = 16\niws_samples = 256\n")

    def test_fractional_ms_rejected(self):
        with pytest.raises(ConfigError, match="whole number"):
            _job("hop_ms = 2.0001\n")

    def test_divisibility_violation_cites_rule(self):
        with pytest.raises(ConfigError, match="multiple of hop"):
            _job("ows_samples = 48\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            _job("widnow = tukey\n")

    def test_unread_keys_are_refused_sorted(self):
        with pytest.raises(ConfigError, match="^unknown config key\\(s\\): alpha, update_stride, zeta$"):
            _job("zeta = 1\nupdate_stride = 4\nalpha = 2\n")

    def test_every_key_read_is_known(self):
        keys = {
            "sample_rate": "16000", "window": "tukey",
            "iws_ms": "16", "ows_samples": "64", "hop_ms": "2", "n_dft": "256", "frames_ahead": "0",
            "stage1": "oracle_mag_mask", "beamformer": "woodbury", "stage2": "passthrough:beamformer",
            "ref_mic": "0", "loading": "1e-6", "forgetting": "1", "bit_depth": "24",
            "mixture": "m.wav", "reference": "r.wav", "output": "o.wav", "report": "r.json",
        }
        job = build_job(keys)
        assert (job.bit_depth, job.reference_path, job.report_path) == (24, "r.wav", "r.json")

    def test_a_bad_value_is_reported_before_an_unknown_key(self):
        with pytest.raises(ConfigError, match="^n_dft: expected an integer, got 'many'$"):
            _job("widnow = tukey\nn_dft = many\n")

    def test_the_pairs_passed_in_are_not_modified(self):
        pairs = parse_pairs("mixture = mix.wav\noutput = out.wav\nhop_ms = 2\nstage1 = oracle_complex\n")
        before = dict(pairs)
        build_job(pairs)
        assert pairs == before
        pairs["widnow"] = "tukey"
        with pytest.raises(ConfigError, match="unknown config key"):
            build_job(pairs)
        assert pairs == {**before, "widnow": "tukey"}

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="output: required"):
            build_job(parse_pairs("mixture = mix.wav\n"))

    def test_estimator_syntax(self):
        job = _job(
            "stage1 = oracle_mag_mask\n"
            "beamformer = woodbury\n"
            "stage2 = passthrough:beamformer\n"
        )
        assert job.pipeline.stage1.kind == "oracle_mag_mask"
        assert job.pipeline.beamformer == "woodbury"
        assert job.pipeline.stage2.source == "beamformer"

    @pytest.mark.parametrize(
        "text, stage, source",
        [
            ("stage1 = passthrough:stage1\n", "stage1", "stage1"),
            ("stage1 = passthrough:beamformer\nbeamformer = woodbury\n", "stage1", "beamformer"),
            ("stage1 = passthrough:beamformer\nframes_ahead = 1\n", "stage1", "beamformer"),
            ("stage1 = oracle_mag_mask\nstage2 = passthrough:beamformer\n", "stage2", "beamformer"),
        ],
        ids=["stage1-of-stage1", "stage1-of-beamformer", "stage1-of-beamformer-predicting", "stage2-of-no-beamformer"],
    )
    def test_passthrough_of_a_missing_source_rejected(self, text, stage, source):
        with pytest.raises(ConfigError, match=f"^{stage}: passthrough source '{source}' does not exist"):
            _job(text)

    def test_passthrough_of_an_earlier_stage_accepted(self):
        assert _job("stage1 = oracle_mag_mask\nstage2 = passthrough:stage1\n").pipeline.stage2.source == "stage1"
        job = _job("stage1 = passthrough:mixture\nbeamformer = woodbury\nstage2 = passthrough:beamformer\n")
        assert job.pipeline.stage2.source == "beamformer"

    def test_passthrough_takes_no_channel_of_its_own(self):
        # the mixture it forwards is the chain's ref_mic
        job = _job("ref_mic = 3\nstage1 = passthrough\n")
        assert job.pipeline.ref_mic == 3 and job.pipeline.stage1 == EstimatorKind("passthrough")
        with pytest.raises(ConfigError, match="^stage1: passthrough source must be one of .*, got 'mixture:1'$"):
            _job("ref_mic = 3\nstage1 = passthrough:mixture:1\n")

    def test_file_and_external_estimators(self):
        job = _job("stage1 = file:frames.npz\nstage2 = external:python stub.py\n")
        assert job.pipeline.stage1.path == "frames.npz"
        assert job.pipeline.stage2.command == "python stub.py"

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="stage1"):
            _job("stage1 = dnn\n")

    def test_bad_numbers_name_the_field(self):
        with pytest.raises(ConfigError, match="frames_ahead"):
            _job("frames_ahead = soon\n")
        with pytest.raises(ConfigError, match="bit_depth"):
            _job("bit_depth = 20\n")
        with pytest.raises(ConfigError, match="ref_mic"):
            _job("ref_mic = -1\n")
