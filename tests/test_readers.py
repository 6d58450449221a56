"""Every binary reader rejects a cut, padded or crafted file with ValueError; every writer keeps its layout."""
import hashlib
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bofsent.classifier import LinearSvmModel, read_svm_model, write_svm_model
from bofsent.codebook import GmmCodebook, read_codebook, write_codebook
from bofsent.descriptors import DescriptorSet, read_descriptors, write_descriptors
from bofsent.prosody import PcmSignal, read_pcm, write_pcm
from bofsent.video import FrameVolume, read_frame_volume, write_frame_volume


def _pcm(rng, n):
    return PcmSignal(samples=rng.uniform(-1.0, 1.0, n), sample_rate=8000)


def _volume(rng, n):
    return FrameVolume(frames=rng.random((3, 16, 16 + n)), frame_rate=10.0)


def _descriptors(rng, n):
    return DescriptorSet("seg-é" * (n % 3), rng.random((n, 3)).astype(np.float32))


def _codebook(rng, n):
    k = 1 + n % 3
    weights = rng.random(k) + 0.1
    return GmmCodebook(weights / weights.sum(), rng.random((k, 2)), rng.random((k, 2)) + 0.1, "video")


def _svm(rng, n):
    return LinearSvmModel(w=rng.standard_normal(n + 1), b=0.5, C=2.0, score_min=-1.0, score_max=1.0)


# name -> (make a valid object, writer, reader, whether appended bytes must be rejected)
FORMATS = {
    # PCM1 is media: a header-sized prefix is read, the rest ignored
    "PCM1": (_pcm, write_pcm, lambda path: read_pcm(path, path.read_bytes()), False),
    "FVL1": (_volume, write_frame_volume, lambda path: read_frame_volume(path, path.read_bytes()), True),
    "DSC1": (_descriptors, write_descriptors, read_descriptors, True),
    "GMM1": (_codebook, write_codebook, read_codebook, True),
    "SVM1": (_svm, write_svm_model, read_svm_model, True),
}


def _rejects(read, path: Path, data: bytes) -> bool:
    path.write_bytes(data)
    try:
        read(path)
    except ValueError:
        return True
    return False


@settings(max_examples=30, deadline=None)
@example("DSC1", 1, 0, b"\0")  # cut inside the id-length field, once a struct.error
@example("GMM1", 1, 0, b"\0")  # a trailing byte, once accepted
@given(
    st.sampled_from(sorted(FORMATS)),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.binary(min_size=1, max_size=1),
)
def test_cut_or_padded_file_raises_value_error(name, n, seed, extra):
    make, write, read, strict_end = FORMATS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        write(path, make(np.random.default_rng(seed), n))
        data = path.read_bytes()
        read(path)  # the valid file reads
        accepted = [size for size in range(len(data)) if not _rejects(read, path, data[:size])]
        assert accepted == [], f"{name}: prefixes of {len(data)} bytes read without error"
        if strict_end:
            assert _rejects(read, path, data + extra), f"{name}: trailing byte accepted"


# A version-2 descriptor header: magic, version, dim, count, extract hash, media SHA-256, id length.
_DSC2 = struct.Struct("<4sIIQ8s32sI")
# magic, K, dim, modality tag; then float64 weights, means and variances
_GMM1 = struct.Struct("<4sIIB")
# magic, dim, b, C, score_min, score_max; then float64 weights
_SVM1 = struct.Struct("<4sIdddd")
# magic, T, H, W, frame rate in mHz; then u8 intensities
_FVL1 = struct.Struct("<4sIIII")
# magic, sample rate, sample count; then int16 samples
_PCM1 = struct.Struct("<4sIQ")


def _f8(*values):
    return np.asarray(values, dtype="<f8").tobytes()


@pytest.mark.parametrize(
    ("name", "data", "read", "reason"),
    [
        # 10**12 rows of 0-d descriptors and an empty id, which once read as a set of that length
        pytest.param(
            "crafted.dsc",
            _DSC2.pack(b"DSC1", 2, 0, 10**12, bytes(8), bytes(32), 0),
            read_descriptors,
            "dimension is 0",
            id="DSC1-dim-0",
        ),
        # a version-1 file of four 3-d rows (no extract hash or media digest), as older run directories hold
        pytest.param(
            "old.dsc", struct.pack("<4sIIQI", b"DSC1", 1, 3, 4, 0) + bytes(48), read_descriptors, "version 1",
            id="DSC1-version-1",
        ),
        # headerless PCM half a sample long, once numpy's error without the file's name
        pytest.param(
            "odd.pcm", b"\1\2\3", lambda path: read_pcm(path, path.read_bytes(), 8000), "odd number", id="PCM-odd-bytes"
        ),
        # finite parameters whose joint terms overflow, once accepted with a RuntimeWarning
        pytest.param(
            "overflow.gmm",
            _GMM1.pack(b"GMM1", 2, 1, 0) + _f8(0.5, 0.5) + _f8(0.0, 1e268) + _f8(1.0, 1e-3),
            read_codebook,
            "joint terms must be finite",
            id="GMM1-terms-overflow",
        ),
        # The cases below once raised without the file's name.
        pytest.param(
            "bad-id.dsc",
            _DSC2.pack(b"DSC1", 2, 3, 0, bytes(8), bytes(32), 1) + b"\xff",
            read_descriptors,
            "can't decode byte 0xff",
            id="DSC1-id-not-utf8",
        ),
        pytest.param(
            "unnormalized.gmm",
            _GMM1.pack(b"GMM1", 2, 1, 0) + _f8(0.5, 0.25) + _f8(0.0, 1.0) + _f8(1.0, 1.0),
            read_codebook,
            "weights must sum to 1",
            id="GMM1-weights-sum",
        ),
        pytest.param(
            "flat.svm",
            _SVM1.pack(b"SVM1", 1, 0.0, 1.0, 1.0, 1.0) + _f8(1.0),
            read_svm_model,
            "degenerate normalization bounds",
            id="SVM1-score-bounds",
        ),
        pytest.param(
            "thin.fvl",
            _FVL1.pack(b"FVL1", 2, 16, 16, 10_000) + bytes(2 * 16 * 16),
            lambda path: read_frame_volume(path, path.read_bytes()),
            "below minimum filter support",
            id="FVL1-two-frames",
        ),
        pytest.param(
            "rate-0.pcm",
            _PCM1.pack(b"PCM1", 0, 1) + bytes(2),
            lambda path: read_pcm(path, path.read_bytes()),
            "sample_rate must be positive",
            id="PCM1-rate-0",
        ),
    ],
)
def test_crafted_file_raises_value_error_naming_it(tmp_path, name, data, read, reason):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{reason}"):
        read(path)


# One fixed small object per format, and the SHA-256 of the file its writer makes.
PINNED = {
    "PCM1": (
        write_pcm,
        lambda: PcmSignal(samples=np.array([-1.0, -0.5, 0.0, 0.25, 1.0]), sample_rate=8000),
        "52914728eff5fcadf86409d9a8e3f80d892bb056a2893865d769a7f4a082de59",
    ),
    "FVL1": (
        write_frame_volume,
        lambda: FrameVolume(frames=np.linspace(0.0, 1.0, 3 * 16 * 17).reshape(3, 16, 17), frame_rate=12.5),
        "940ea23544914ca8293740a0e4bb3b91092510391b091bb81edd792f8aee7fd3",
    ),
    "DSC1": (
        write_descriptors,
        lambda: DescriptorSet("seg-é", np.arange(6, dtype=np.float32).reshape(2, 3) / 4, "0123456789abcdef", "ab" * 32),
        "04bdce8e6bd57d68fe1a77b77d2481d52d4c68b52d7a80cdddd9603d8aebedd3",
    ),
    "GMM1": (
        write_codebook,
        lambda: GmmCodebook(
            np.array([0.25, 0.75]), np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[1.0, 2.0], [0.5, 4.0]]), "video"
        ),
        "1463d383d96dc0d9851004510ef441ffee95090a10835eec7850ff9150f81c9a",
    ),
    "SVM1": (
        write_svm_model,
        lambda: LinearSvmModel(w=np.array([0.5, -1.5, 2.0]), b=0.25, C=4.0, score_min=-2.0, score_max=3.0),
        "9bf4b2cab1d909cf1ec36202efaecc11d242fa710ae4668ae16abf71f1b23fcb",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_writer_layout_is_pinned(tmp_path, name):
    write, make, digest = PINNED[name]
    path = tmp_path / "artifact"
    write(path, make())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
