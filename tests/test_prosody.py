import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bofsent import prosody
from bofsent.prosody import (
    PcmSignal,
    ProsodyConfig,
    estimate_f0_shs,
    extract_audio_descriptors,
    frame_signal,
    loudness,
    read_pcm,
    voicing_probability,
    write_pcm,
)
from util import interp_salience, tone

SR = 16000


def _block(signal, index=0, window=0.05, hop=0.01):
    return frame_signal(signal, ProsodyConfig(window=window, hop=hop))[index]


class TestFrameSignal:
    def test_block_count_one_second(self):
        sig = PcmSignal(samples=np.zeros(SR), sample_rate=SR)
        blocks = frame_signal(sig)
        assert blocks.shape == (96, 800)

    def test_exactly_one_window(self):
        sig = PcmSignal(samples=np.ones(800), sample_rate=SR)
        assert frame_signal(sig).shape[0] == 1

    def test_too_short(self):
        sig = PcmSignal(samples=np.zeros(160), sample_rate=SR)
        with pytest.raises(ValueError, match="shorter"):
            frame_signal(sig)

    def test_hop_under_one_sample_rejected(self):
        sig = PcmSignal(samples=np.zeros(1000), sample_rate=SR)
        with pytest.raises(ValueError, match=r"hop 1e-05 s \(window 0.05 s\) is under one sample at 16000 Hz"):
            frame_signal(sig, ProsodyConfig(hop=1e-5))
        assert frame_signal(sig, ProsodyConfig(hop=0.6 / SR)).shape == (201, 800)  # rounds to one sample

    def test_hann_weighting(self):
        sig = PcmSignal(samples=np.ones(800), sample_rate=SR)
        block = frame_signal(sig)[0]
        assert np.allclose(block, np.hanning(800))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        block_len=st.integers(1, 300),
        hop_fraction=st.floats(0.0, 1.0),
        extra=st.integers(0, 700),
    )
    def test_frames_match_an_index_gather_bitwise(self, seed, block_len, hop_fraction, extra):
        rate = 1000
        hop_len = max(1, round(hop_fraction * block_len))
        config = ProsodyConfig(window=block_len / rate, hop=hop_len / rate)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, block_len + extra)
        frames = frame_signal(PcmSignal(samples=x, sample_rate=rate), config)
        n_blocks = extra // hop_len + 1
        idx = hop_len * np.arange(n_blocks)[:, None] + np.arange(block_len)[None, :]
        expected = x[idx] * np.hanning(block_len)
        assert frames.shape == expected.shape and frames.tobytes() == expected.tobytes()


class TestProsodyConfig:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"hop": 0.0}, "breaks window >= hop > 0$"),
            ({"window": 0.005}, "breaks window >= hop > 0$"),
            ({"f0_min": 0.0}, "breaks 0 < f0_min < f0_max$"),
            ({"f0_min": 400.0}, "breaks 0 < f0_min < f0_max$"),
            ({"n_harmonics": 0}, "breaks n_harmonics >= 1$"),
            ({"bins_per_octave": 0}, "breaks bins_per_octave >= 1$"),
            ({"compression": 0.0}, "breaks compression > 0$"),
            ({"voicing_threshold": 1.5}, "breaks 0 <= voicing_threshold <= 1$"),
            ({"voicing_threshold": -0.1}, "breaks 0 <= voicing_threshold <= 1$"),
            ({"window": float("inf")}, "breaks every value finite$"),
            ({"compression": float("nan")}, "breaks every value finite; compression > 0$"),
        ],
        ids=["zero-hop", "hop-past-window", "zero-f0-min", "empty-pitch-range", "no-harmonics", "no-bins",
             "zero-compression", "threshold-above-one", "threshold-below-zero", "infinite-window", "nan-compression"],
    )
    def test_unusable_settings_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ProsodyConfig(**fields)

    def test_range_edges_accepted(self):
        ProsodyConfig(window=0.01, hop=0.01, n_harmonics=1, bins_per_octave=1, voicing_threshold=0.0)
        ProsodyConfig(voicing_threshold=1.0)

    def test_pitch_range_checked_against_the_sample_rate(self):
        # The default f0_max of 400 Hz is at Nyquist for an 800 Hz signal.
        with pytest.raises(ValueError, match="require f0_max < sample_rate / 2"):
            estimate_f0_shs(np.ones((1, 40)), 800)


class TestEstimateF0:
    def test_pure_sine_220(self):
        f0, salience = estimate_f0_shs(_block(tone(220.0, 0.05)), SR)
        assert abs(f0 - 220.0) < 2.0
        assert salience > 0

    def test_all_zero_block(self):
        f0, salience = estimate_f0_shs(np.zeros(800), SR)
        assert salience == 0.0
        assert 55.0 <= f0 <= 400.0

    def test_sawtooth_no_octave_error(self):
        t = np.arange(800) / SR
        saw = 2.0 * (t * 150.0 - np.floor(t * 150.0 + 0.5))
        f0, _ = estimate_f0_shs(saw * np.hanning(800), SR)
        assert abs(f0 - 150.0) < 2.0

    def test_amplitude_scale_invariance(self):
        block = _block(tone(180.0, 0.05))
        reference, _ = estimate_f0_shs(block, SR)
        for scale in (1e-3, 0.5, 7.0, 1e3):
            scaled, _ = estimate_f0_shs(scale * block, SR)
            assert scaled == pytest.approx(reference, abs=1e-9)

    def test_period_shift_robustness(self):
        freq = 200.0
        period = SR / freq  # exactly 80 samples
        sig = tone(freq, 0.2)
        base = frame_signal(sig)[0]
        f_ref, _ = estimate_f0_shs(base, SR)
        for periods in (1, 2, 5):
            shift = int(periods * period)
            shifted = sig.samples[shift : shift + 800] * np.hanning(800)
            f_shift, _ = estimate_f0_shs(shifted, SR)
            assert abs(f_shift - f_ref) < 1.0

    def test_tone_sweep_accuracy_and_octaves(self):
        for freq in (100.0, 150.0, 200.0, 300.0, 400.0):
            rows = extract_audio_descriptors(tone(freq, 0.5))
            voiced = [f for f in (rows[:, 0] * ProsodyConfig().f0_max).tolist() if f > 0]
            assert voiced, f"no voiced frames at {freq} Hz"
            octave_errors = sum(
                1 for f in voiced if abs(f - 2 * freq) < 3.0 or abs(2 * f - freq) < 3.0
            )
            assert octave_errors / len(voiced) < 0.05
            for f in voiced:
                assert abs(f - freq) < 3.0


class TestVoicing:
    def test_pure_sine_high(self):
        block = _block(tone(220.0, 0.05))
        _, salience = estimate_f0_shs(block, SR)
        assert voicing_probability(block, salience, SR) >= 0.9

    def test_zero_block(self):
        assert voicing_probability(np.zeros(800), 0.0, SR) == 0.0

    def test_white_noise_low(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            block = rng.standard_normal(800) * np.hanning(800)
            _, salience = estimate_f0_shs(block, SR)
            assert voicing_probability(block, salience, SR) <= 0.5

    def test_fuzz_range(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            block = rng.uniform(-5, 5) * rng.standard_normal(800)
            _, salience = estimate_f0_shs(block, SR)
            v = voicing_probability(block, salience, SR)
            assert 0.0 <= v <= 1.0
            assert loudness(block) >= 0.0


class TestLoudness:
    def test_zero(self):
        assert loudness(np.zeros(100)) == 0.0

    def test_full_scale_square(self):
        square = np.ones(800)
        square[::2] = -1.0
        assert loudness(square) == pytest.approx(1.0)

    def test_halving_ratio(self):
        square = np.ones(800)
        square[::2] = -1.0
        assert loudness(square) / loudness(0.5 * square) == pytest.approx(2.0**0.3)


class TestExtractProsody:
    """Descriptor columns: f0 / f0_max, voicing, loudness; f0 in Hz is column 0 * f0_max."""

    def test_steady_tone_all_voiced(self):
        rows = extract_audio_descriptors(tone(220.0, 1.0))
        assert len(rows) == 96
        for f0, voicing in zip(rows[:, 0] * ProsodyConfig().f0_max, rows[:, 1]):
            assert voicing >= 0.45
            assert abs(f0 - 220.0) < 3.0

    def test_silence_all_unvoiced(self):
        rows = extract_audio_descriptors(PcmSignal(samples=np.zeros(SR), sample_rate=SR))
        for f0, voicing, level in rows:
            assert f0 == 0.0
            assert voicing == 0.0
            assert level == 0.0

    def test_tone_then_silence_transition(self):
        config = ProsodyConfig()
        samples = np.concatenate([tone(220.0, 0.5).samples, np.zeros(SR // 2)])
        rows = extract_audio_descriptors(PcmSignal(samples=samples, sample_rate=SR), config)
        voiced = (rows[:, 0] > 0).tolist()
        splice_frame = int(0.5 / config.hop)
        last_voiced = max(i for i, flag in enumerate(voiced) if flag)
        assert voiced.index(True) <= 2, "voiced prefix should start immediately"
        assert abs(last_voiced - splice_frame) <= 2
        assert not any(voiced[last_voiced + 1 :]), "suffix after transition must stay unvoiced"

    def test_unvoiced_iff_f0_zero(self):
        rng = np.random.default_rng(9)
        samples = np.concatenate([tone(150.0, 0.3).samples, 0.1 * rng.standard_normal(SR // 2)])
        rows = extract_audio_descriptors(PcmSignal(samples=samples, sample_rate=SR))
        for f0, voicing in zip(rows[:, 0] * ProsodyConfig().f0_max, rows[:, 1]):
            assert (f0 == 0.0) == (voicing < 0.45)
            if f0 > 0:
                assert 55.0 <= f0 <= 400.0

    def test_descriptor_layout(self):
        config = ProsodyConfig()
        signal = tone(200.0, 0.2)
        blocks = frame_signal(signal, config)
        rows = extract_audio_descriptors(signal, config)
        assert rows.shape == (len(blocks), 3)
        f0 = []
        for block in blocks:
            hz, salience = estimate_f0_shs(block, SR)
            f0.append(hz if voicing_probability(block, salience, SR) >= config.voicing_threshold else 0.0)
        assert np.allclose(rows[:, 0] * config.f0_max, f0)


class TestBatchedFrontEnd:
    """A (frames, block_len) stack gives the row-by-row results; blocking changes nothing."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_frames=st.integers(1, 6),
        sample_rate=st.sampled_from([8000, 11025, 16000, 22050, 44100]),
        seed=st.integers(0, 2**32 - 1),
        zero_rows=st.sets(st.integers(0, 5)),
    )
    def test_stack_equals_row_by_row(self, n_frames, sample_rate, seed, zero_rows):
        rng = np.random.default_rng(seed)
        t = np.arange(800) / sample_rate
        pitch = rng.uniform(60.0, 390.0, (n_frames, 1))
        stack = rng.uniform(0.0, 1.0, (n_frames, 1)) * np.sin(2.0 * np.pi * pitch * t)
        stack += rng.uniform(0.0, 0.5, (n_frames, 1)) * rng.standard_normal((n_frames, 800))
        stack[[i for i in zero_rows if i < n_frames]] = 0.0
        stack *= np.hanning(800)

        f0, salience = estimate_f0_shs(stack, sample_rate)
        voicing = voicing_probability(stack, salience, sample_rate)
        level = loudness(stack)
        assert f0.shape == salience.shape == voicing.shape == level.shape == (n_frames,)
        rows = []
        for row in stack:
            row_f0, row_salience = estimate_f0_shs(row, sample_rate)
            row_values = (row_f0, row_salience, voicing_probability(row, row_salience, sample_rate), loudness(row))
            assert all(np.ndim(v) == 0 for v in row_values)
            rows.append(row_values)
        np.testing.assert_allclose(np.column_stack([f0, salience, voicing, level]), rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("frame_block", [1, 7, 10_000])
    def test_frame_block_does_not_change_descriptors(self, monkeypatch, frame_block):
        rng = np.random.default_rng(3)
        samples = np.concatenate([tone(180.0, 0.4).samples, 0.2 * rng.standard_normal(SR // 4), np.zeros(SR // 10)])
        signal = PcmSignal(samples=samples, sample_rate=SR)
        reference = extract_audio_descriptors(signal)
        assert len(reference) > prosody.FRAME_BLOCK
        monkeypatch.setattr(prosody, "FRAME_BLOCK", frame_block)
        rows = extract_audio_descriptors(signal)
        np.testing.assert_allclose(rows, reference, rtol=0, atol=1e-12)
        assert rows.astype(np.float32).tobytes() == reference.astype(np.float32).tobytes()

    @pytest.mark.parametrize(
        "field, value, columns",
        [
            ("f0_min", 150.0, (0, 1)),  # the pitch range cuts through the glide: pitch and voicing move
            ("f0_max", 150.0, (0, 1)),
            ("n_harmonics", 4, (0,)),
            ("compression", 0.7, (0,)),
            ("bins_per_octave", 36, (0,)),
        ],
    )
    def test_every_analysis_field_reaches_the_descriptors(self, field, value, columns):
        # A 120-180 Hz glide with a second harmonic and noise, so no setting is moot.
        rng = np.random.default_rng(5)
        phase = 2.0 * np.pi * np.cumsum(120.0 + 200.0 * np.arange(SR * 3 // 10) / SR) / SR
        samples = 0.5 * np.sin(phase) + 0.25 * np.sin(2.0 * phase) + 0.1 * rng.standard_normal(phase.size)
        signal = PcmSignal(samples=samples, sample_rate=SR)
        reference = extract_audio_descriptors(signal)
        changed = extract_audio_descriptors(signal, ProsodyConfig(**{field: value}))
        for column in columns:
            assert not np.array_equal(changed[:, column], reference[:, column]), column

    def test_harmonics_past_nyquist_hold_the_last_bin(self):
        # At 8 kHz, candidates above 800 Hz put their fifth harmonic past 4 kHz.
        rate, settings_ = 8000, dict(f0_min=100.0, f0_max=1000.0, n_harmonics=5)
        t = np.arange(400) / rate
        rng = np.random.default_rng(11)
        stack = np.stack(
            [
                np.sin(2.0 * np.pi * 950.0 * t),
                np.sin(2.0 * np.pi * 3990.0 * t) + 0.3 * np.sin(2.0 * np.pi * 997.5 * t),
                rng.standard_normal(t.size),
            ]
        ) * np.hanning(t.size)
        _, salience = estimate_f0_shs(stack, rate, ProsodyConfig(**settings_))
        for row, value in zip(stack, salience):
            assert value == pytest.approx(interp_salience(row, rate, **settings_), abs=1e-9)


class TestPcmIo:
    def test_roundtrip(self, tmp_path):
        sig = tone(330.0, 0.1)
        path = tmp_path / "x.pcm"
        write_pcm(path, sig)
        back = read_pcm(path, path.read_bytes())
        assert back.sample_rate == SR
        assert np.abs(back.samples - sig.samples).max() < 1.0 / 32000

    def test_headerless_requires_rate(self, tmp_path):
        path = tmp_path / "raw.pcm"
        path.write_bytes(np.zeros(100, dtype="<i2").tobytes())
        with pytest.raises(ValueError, match="sample rate"):
            read_pcm(path, path.read_bytes())
        assert read_pcm(path, path.read_bytes(), sample_rate=8000).sample_rate == 8000
