import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bofsent import video
from bofsent.synth import SynthConfig, synth_video
from bofsent.video import (
    FrameVolume,
    DetectorConfig,
    build_integral,
    describe,
    detect,
    extract_video_descriptors,
    hessian_response_field,
    read_frame_volume,
    write_frame_volume,
)
from util import (
    blob_volume,
    box_filter_bank,
    box_hessian_fields,
    box_sum,
    brute_box_sum,
    full_field_detect,
    full_hessian_field,
    hessian_response,
    per_point_describe,
    point_rows,
)

SMALL_LADDER = DetectorConfig(spatial_scales=(1.2, 2.4), temporal_scales=(1.0, 2.0))


class TestIntegralVolume:
    def test_all_ones_full_box(self):
        volume = FrameVolume(frames=np.ones((4, 16, 16)), frame_rate=10.0)
        table = build_integral(volume)
        assert table.shape == (5, 17, 17)
        assert box_sum(table, 0, 4, 0, 4, 0, 4) == pytest.approx(64.0)

    def test_empty_box(self):
        volume = FrameVolume(frames=np.ones((4, 16, 16)), frame_rate=10.0)
        table = build_integral(volume)
        assert box_sum(table, 2, 2, 0, 4, 0, 4) == 0.0

    def test_random_boxes_match_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            shape = (int(rng.integers(3, 9)), int(rng.integers(16, 25)), int(rng.integers(16, 25)))
            volume = FrameVolume(frames=rng.random(shape), frame_rate=10.0)
            table = build_integral(volume)
            for _ in range(100):
                t0, t1 = sorted(rng.integers(0, shape[0] + 1, 2))
                y0, y1 = sorted(rng.integers(0, shape[1] + 1, 2))
                x0, x1 = sorted(rng.integers(0, shape[2] + 1, 2))
                expected = brute_box_sum(volume.frames, t0, t1, y0, y1, x0, x1)
                assert box_sum(table, t0, t1, y0, y1, x0, x1) == pytest.approx(expected, abs=1e-9)

    def test_rejects_out_of_bounds(self):
        table = build_integral(FrameVolume(frames=np.ones((4, 16, 16)), frame_rate=10.0))
        with pytest.raises(ValueError):
            box_sum(table, 0, 5, 0, 4, 0, 4)


class TestHessianResponse:
    def test_constant_volume_zero_everywhere(self):
        volume = FrameVolume(frames=np.full((12, 24, 24), 0.5), frame_rate=10.0)
        table = build_integral(volume)
        for x, y, t in ((12, 12, 6), (10, 14, 5), (13, 11, 7)):
            assert hessian_response(table, x, y, t, 1.2, 1.0) == 0.0

    def test_blob_center_is_neighborhood_max(self):
        volume = blob_volume((24, 48, 48), (12.0, 24.0, 24.0), sigma_s=3.0, sigma_t=2.0)
        table = build_integral(volume)
        center = abs(hessian_response(table, 24, 24, 12, 2.4, 2.0))
        for dt in range(-2, 3):
            for dy in range(-2, 3):
                for dx in range(-2, 3):
                    if dt == dy == dx == 0:
                        continue
                    value = abs(hessian_response(table, 24 + dx, 24 + dy, 12 + dt, 2.4, 2.0))
                    assert value < center

    def test_contrast_cubic_scaling(self):
        low = blob_volume((24, 48, 48), (12.0, 24.0, 24.0), 3.0, 2.0, contrast=0.3, background=0.0)
        high = blob_volume((24, 48, 48), (12.0, 24.0, 24.0), 3.0, 2.0, contrast=0.6, background=0.0)
        r_low = hessian_response(build_integral(low), 24, 24, 12, 2.4, 2.0)
        r_high = hessian_response(build_integral(high), 24, 24, 12, 2.4, 2.0)
        assert r_high / r_low == pytest.approx(8.0, rel=1e-6)

    def test_mixed_terms_small_for_isotropic_blob(self):
        # probe the six responses through the field of a blob with no cross structure
        volume = blob_volume((24, 48, 48), (12.0, 24.0, 24.0), 3.0, 2.0)
        table = build_integral(volume)
        filters, _ = box_filter_bank(2.4, 2.0)
        values = {}
        for name, (boxes, area) in filters.items():
            acc = 0.0
            for t0, t1, y0, y1, x0, x1, w in boxes:
                acc += w * box_sum(table, 12 + t0, 12 + t1, 24 + y0, 24 + y1, 24 + x0, 24 + x1)
            values[name] = acc / area
        principal = max(abs(values["dxx"]), abs(values["dyy"]), abs(values["dtt"]))
        for name in ("dxy", "dxt", "dyt"):
            assert abs(values[name]) < 0.1 * principal

    def test_out_of_support_raises(self):
        table = build_integral(FrameVolume(frames=np.zeros((12, 24, 24)), frame_rate=10.0))
        with pytest.raises(ValueError, match="support"):
            hessian_response(table, 0, 0, 0, 2.4, 2.0)

    def test_field_matches_point_queries(self):
        volume = blob_volume((20, 32, 32), (10.0, 16.0, 16.0), 2.5, 2.0)
        table = build_integral(volume)
        field = full_hessian_field(table, 1.2, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(6, 14))
            y = int(rng.integers(10, 22))
            x = int(rng.integers(10, 22))
            assert field[t, y, x] == pytest.approx(hessian_response(table, x, y, t, 1.2, 1.0), abs=1e-12)

    def test_field_spans_the_filter_box(self):
        # Margins are 4 at scale 1.0 and 1.2, 7 at 2.4, 13 at 4.0 and 28 at 9.0.
        table = build_integral(FrameVolume(frames=np.zeros((12, 40, 40)), frame_rate=10.0))
        assert [f.shape for f in hessian_response_field(table, 1.2, (1.0, 4.0))] == [(4, 32, 32), (0, 32, 32)]
        assert [f.shape for f in hessian_response_field(table, 2.4, (4.0,))] == [(0, 26, 26)]
        assert [f.shape for f in hessian_response_field(table, 9.0, (1.0,))] == [(4, 0, 0)]
        assert hessian_response_field(table, 1.2, ()) == []


@st.composite
def structured_volumes(draw):
    """Uniform noise, or a blob on a dark background with 1% noise, at a drawn shape; maybe on the u8 grid."""
    shape = (draw(st.integers(3, 40)), draw(st.integers(16, 70)), draw(st.integers(16, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        frames = rng.random(shape)
    else:
        center = tuple(float(rng.uniform(0, n - 1)) for n in shape)
        blob = blob_volume(shape, center, float(rng.uniform(1.5, 4.0)), float(rng.uniform(1.0, 3.0)), background=0.0)
        frames = np.clip(blob.frames + 0.01 * rng.standard_normal(shape), 0.0, 1.0)
    if draw(st.booleans()):
        frames = np.round(frames * 255.0) / 255.0
    return FrameVolume(frames=frames, frame_rate=10.0)


class TestStencilField:
    """``hessian_response_field`` (per-axis stencils) against the box filters it replaced, in ``util``."""

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="needs an extended-precision long double"
    )
    @settings(max_examples=40, deadline=None)
    @given(
        structured_volumes(),
        st.sampled_from([1.2, 2.4, 4.8, 9.0]),
        st.lists(st.sampled_from([0.4, 1.0, 2.0, 4.0]), min_size=1, max_size=3).map(tuple),
    )
    def test_matches_box_filters(self, volume, sigma_s, temporal_scales):
        # The box filters run in extended precision, since in float64 their
        # own rounding reaches 2.4e-12 of max|field| on uniform noise. Both
        # roundings grow with the integral table rather than the field: on a
        # weak field over a bright background (1% noise around 0.5) the
        # stencils come within 8.1e-12 of max|field| and the float64 boxes
        # within 1.1e-10, so such volumes are not drawn here.
        table = build_integral(volume)
        fields = hessian_response_field(table, sigma_s, temporal_scales)
        references = box_hessian_fields(table.astype(np.longdouble), sigma_s, temporal_scales)
        assert len(fields) == len(references)
        for field, reference in zip(fields, references):
            assert field.shape == reference.shape
            if field.size:
                error = np.abs(field - reference).max()
                assert error <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("rows", [1, 7, 10000])
    def test_slab_height_and_out_change_no_bit(self, monkeypatch, rows):
        rng = np.random.default_rng(5)
        table = build_integral(FrameVolume(frames=rng.random((12, 45, 37)), frame_rate=10.0))
        ladder = (0.4, 1.0, 4.0)  # 12 frames leave no room for sigma_t = 4
        expected = {sigma_s: hessian_response_field(table, sigma_s, ladder) for sigma_s in (1.2, 2.4, 9.0)}
        monkeypatch.setattr(video, "_SLAB_ROWS", rows)
        for sigma_s, fields in expected.items():
            got = hessian_response_field(table, sigma_s, ladder)
            out = [np.full(f.shape, np.nan) for f in fields]
            assert hessian_response_field(table, sigma_s, ladder, out=out) is out
            assert [f.shape for f in got] == [f.shape for f in fields]
            assert all(a.tobytes() == b.tobytes() == c.tobytes() for a, b, c in zip(got, out, fields))


class TestDetect:
    @pytest.mark.parametrize("threshold", [1e-4, 0.0, -1.0])
    def test_matches_full_field_reference(self, threshold):
        # 12 frames leave no room for the sigma_t = 4 filters and 40x40 none for sigma_s = 9.
        rng = np.random.default_rng(4)
        volume = FrameVolume(frames=np.clip(0.5 + 0.25 * rng.standard_normal((12, 40, 40)), 0.0, 1.0), frame_rate=10.0)
        config = DetectorConfig(spatial_scales=(1.2, 2.4, 9.0), temporal_scales=(1.0, 2.0, 4.0), threshold=threshold)
        table = build_integral(volume)
        points = point_rows(detect(table, config))
        assert points
        assert points == full_field_detect(table, config)

    def test_tied_responses_ordered_by_t_then_y_then_x(self):
        # Intensities in sixteenths make every box sum exact, so two copies of one blob tie exactly.
        first = blob_volume((20, 48, 48), (8.0, 32.0, 14.0), 3.0, 2.0).frames
        second = blob_volume((20, 48, 48), (12.0, 14.0, 34.0), 3.0, 2.0).frames
        volume = FrameVolume(frames=np.round(np.maximum(first, second) * 16) / 16, frame_rate=10.0)
        table = build_integral(volume)
        points = detect(table, SMALL_LADDER)
        assert points[5][0] == points[5][1]
        assert points[0][:2].tolist() == [8, 12]
        assert point_rows(points) == full_field_detect(table, SMALL_LADDER)

    def test_point_columns(self):
        volume = blob_volume((20, 40, 40), (10.0, 20.0, 20.0), 3.0, 2.0)
        points = detect(build_integral(volume), SMALL_LADDER)
        assert len(points) == 6
        assert len({column.shape for column in points}) == 1
        assert all(column.dtype.kind == "i" for column in points[:3])
        assert all(column.dtype == np.float64 for column in points[3:])

    def test_one_voxel_box_of_zeros_has_no_point(self):
        # The (3.0, 1.0) filters fit at the centre voxel only, where the response is 0.
        table = build_integral(FrameVolume(frames=np.zeros((9, 21, 21)), frame_rate=10.0))
        config = DetectorConfig(spatial_scales=(3.0,), temporal_scales=(1.0,), threshold=-1.0)
        assert point_rows(detect(table, config)) == full_field_detect(table, config) == []

    def test_one_field_call_per_spatial_scale(self, monkeypatch):
        # bench/layers.py times video.hessian_s by wrapping this module attribute.
        calls = []
        field = video.hessian_response_field

        def counted(table, sigma_s, temporal_scales, **kwargs):
            calls.append((sigma_s, temporal_scales))
            return field(table, sigma_s, temporal_scales, **kwargs)

        monkeypatch.setattr(video, "hessian_response_field", counted)
        config = DetectorConfig()
        detect(build_integral(blob_volume((20, 40, 40), (10.0, 20.0, 20.0), 3.0, 2.0)), config)
        assert calls == [(sigma_s, config.temporal_scales) for sigma_s in config.spatial_scales]

    @pytest.mark.parametrize("seed", range(6))
    def test_ingest_shaped_points_match_box_filter_fields(self, monkeypatch, seed):
        # The benchmark's `ingest` video: 32x64x64 synthetic segments on the u8 grid.
        cfg = SynthConfig(frames=32, height=64, width=64)
        frames = synth_video(np.random.default_rng(seed), 1 if seed % 2 else -1, cfg).frames
        table = build_integral(FrameVolume(frames=np.round(frames * 255.0) / 255.0, frame_rate=cfg.frame_rate))
        points = detect(table)
        monkeypatch.setattr(video, "hessian_response_field", box_hessian_fields)
        reference = detect(table)
        assert points[0].size
        assert point_rows(points[:5]) == point_rows(reference[:5])

    def test_constant_volume_empty(self):
        table = build_integral(FrameVolume(frames=np.full((16, 32, 32), 0.3), frame_rate=10.0))
        assert point_rows(detect(table, SMALL_LADDER)) == []

    def test_single_blob_localized(self):
        volume = blob_volume((20, 40, 40), (10.0, 21.0, 17.0), 3.0, 2.0)
        t, y, x, _, _, _ = detect(build_integral(volume), SMALL_LADDER)
        assert t.size
        assert abs(x[0] - 17) <= 2 and abs(y[0] - 21) <= 2
        assert abs(t[0] - 10) <= 1

    def test_two_blobs_ordered_by_contrast(self):
        t_count, height, width = 20, 40, 72
        ts = np.arange(t_count)[:, None, None]
        ys = np.arange(height)[None, :, None]
        xs = np.arange(width)[None, None, :]

        def bump(ct, cy, cx, contrast):
            return contrast * np.exp(
                -((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * 3.0**2) - (ts - ct) ** 2 / (2 * 2.0**2)
            )

        frames = 0.1 + bump(10, 20, 18, 0.3) + bump(10, 20, 54, 0.7)
        volume = FrameVolume(frames=np.clip(frames, 0, 1), frame_rate=10.0)
        t, _, x, _, _, response = detect(build_integral(volume), SMALL_LADDER)
        assert t.size >= 2
        assert abs(x[0] - 54) <= 2, "stronger blob first"
        near_weak = np.flatnonzero((np.abs(x - 18) <= 2) & (np.abs(t - 10) <= 1))
        assert near_weak.size, "weaker blob also detected"
        assert response[0] > response[near_weak[0]]

    def test_sorted_by_descending_response(self):
        volume = blob_volume((20, 40, 40), (10.0, 20.0, 20.0), 3.0, 2.0)
        responses = detect(build_integral(volume), SMALL_LADDER)[5].tolist()
        assert responses == sorted(responses, reverse=True)
        assert all(r > SMALL_LADDER.threshold for r in responses)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            base = (10.0, 19.0, 17.0)
            dt, dy, dx = int(rng.integers(-2, 3)), int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            a = blob_volume((20, 40, 40), base, 3.0, 2.0)
            b = blob_volume((20, 40, 40), (base[0] + dt, base[1] + dy, base[2] + dx), 3.0, 2.0)
            ta, ya, xa = (int(column[0]) for column in detect(build_integral(a), SMALL_LADDER)[:3])
            tb, yb, xb = (int(column[0]) for column in detect(build_integral(b), SMALL_LADDER)[:3])
            assert abs((xb - xa) - dx) <= 1
            assert abs((yb - ya) - dy) <= 1
            assert abs((tb - ta) - dt) <= 1


def _points(*rows):
    """(t, y, x, sigma_s, sigma_t, response) columns from (t, y, x, sigma_s, sigma_t) rows."""
    t, y, x, sigma_s, sigma_t = np.array(rows, dtype=float).reshape(-1, 5).T
    return t.astype(int), y.astype(int), x.astype(int), sigma_s, sigma_t, np.ones(t.size)


class TestDescribe:
    POINT = (10, 20, 20, 2.0, 2.0)  # t, y, x, sigma_s, sigma_t

    def test_constant_patch_zero(self):
        volume = FrameVolume(frames=np.full((20, 40, 40), 0.4), frame_rate=10.0)
        vec = describe(volume, _points(self.POINT))
        assert vec.shape == (1, 64)
        assert np.all(vec == 0.0)

    def test_unit_norm(self):
        volume = blob_volume((20, 40, 40), (10.0, 20.0, 20.0), 3.0, 2.0)
        vec = describe(volume, _points(self.POINT))[0]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_affine_intensity_invariance(self):
        volume = blob_volume((20, 40, 40), (10.0, 20.0, 20.0), 3.0, 2.0, contrast=0.4, background=0.05)
        brighter = FrameVolume(frames=np.clip(2.0 * volume.frames + 0.1, 0.0, 1.0), frame_rate=10.0)
        a = describe(volume, _points(self.POINT))
        b = describe(brighter, _points(self.POINT))
        assert np.abs(a - b).max() < 1e-10


LADDERS = st.sampled_from(
    [
        DetectorConfig(),
        DetectorConfig(spatial_scales=(1.2, 2.4), temporal_scales=(1.0, 2.0)),
        DetectorConfig(spatial_scales=(1.2,), temporal_scales=(0.4, 1.0, 3.0)),
        DetectorConfig(spatial_scales=(2.4, 4.8, 9.0), temporal_scales=(1.0,), threshold=0.0),
    ]
)


@st.composite
def volumes(draw):
    """Noise, smoothed noise, a blob or a constant, at a drawn shape."""
    shape = (draw(st.integers(3, 14)), draw(st.integers(16, 30)), draw(st.integers(16, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "drift", "blob", "constant"]))
    if kind == "noise":
        frames = rng.random(shape)
    elif kind == "drift":
        frames = np.clip(0.5 + 0.1 * np.cumsum(rng.random(shape) - 0.5, axis=0), 0.0, 1.0)
    elif kind == "blob":
        center = tuple(float(rng.uniform(0, n - 1)) for n in shape)
        return blob_volume(shape, center, float(rng.uniform(1.5, 4.0)), float(rng.uniform(1.0, 3.0)))
    else:
        frames = np.full(shape, float(rng.random()))
    return FrameVolume(frames=frames, frame_rate=10.0)


def _assert_matches_per_point(volume, points):
    rows = describe(volume, points)
    assert rows.shape == (points[0].size, 64)
    for row, point in zip(rows, zip(*(column.tolist() for column in points))):
        assert row.tobytes() == per_point_describe(volume, *point[:5]).tobytes()


class TestBatchedDescribe:
    @settings(max_examples=40, deadline=None)
    @given(volumes(), LADDERS)
    def test_detected_points_match_per_point_reference(self, volume, config):
        _assert_matches_per_point(volume, detect(build_integral(volume), config))

    @settings(max_examples=40, deadline=None)
    @given(volumes(), st.data())
    def test_drawn_points_match_per_point_reference(self, volume, data):
        # Points anywhere, borders included, so grids and frame windows are clipped.
        t_count, h, w = volume.shape
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([0, t_count - 1]) | st.integers(0, t_count - 1),
                    st.sampled_from([0, h - 1]) | st.integers(0, h - 1),
                    st.sampled_from([0, w - 1]) | st.integers(0, w - 1),
                    st.sampled_from([1.2, 2.4, 4.8, 9.0]),
                    st.sampled_from([0.4, 1.0, 2.0, 4.0, 2.0 * t_count]),
                ),
                max_size=12,
            )
        )
        _assert_matches_per_point(volume, _points(*rows))


class TestExtractVideoDescriptors:
    def test_constant_video_empty(self):
        volume = FrameVolume(frames=np.full((16, 32, 32), 0.2), frame_rate=10.0)
        rows = extract_video_descriptors(volume, SMALL_LADDER)
        assert rows.shape[0] == 0

    def test_blob_video_bounded(self):
        volume = blob_volume((20, 40, 40), (10.0, 20.0, 20.0), 3.0, 2.0)
        config = DetectorConfig(spatial_scales=(1.2, 2.4), temporal_scales=(1.0, 2.0), max_points=3)
        rows = extract_video_descriptors(volume, config)
        assert 0 < rows.shape[0] <= 3
        assert rows.shape[1] == 64

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        frames = np.clip(rng.random((16, 32, 32)), 0, 1)
        volume = FrameVolume(frames=frames, frame_rate=10.0)
        a = extract_video_descriptors(volume, SMALL_LADDER)
        b = extract_video_descriptors(volume, SMALL_LADDER)
        assert np.array_equal(a, b)


class TestInputChecks:
    @pytest.mark.parametrize(
        "fields",
        [
            {"spatial_scales": ()},
            {"temporal_scales": ()},
            {"spatial_scales": (-1.2,)},
            {"spatial_scales": (1.2, 0.0)},
            {"temporal_scales": (1.0, math.inf)},
            {"temporal_scales": (math.nan,)},
            {"threshold": math.nan},
            {"threshold": -math.inf},
            {"max_points": 0},
            {"max_points": -1},
        ],
    )
    def test_detector_config_rejects(self, fields):
        (name,) = fields
        with pytest.raises(ValueError, match=name):
            DetectorConfig(**fields)

    def test_frame_volume_rejects_nan(self):
        frames = np.full((4, 16, 16), 0.5)
        frames[2, 3, 4] = math.nan
        with pytest.raises(ValueError, match="finite"):
            FrameVolume(frames=frames, frame_rate=10.0)


class TestVolumeIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        volume = FrameVolume(frames=rng.random((5, 20, 18)), frame_rate=12.5)
        path = tmp_path / "v.fvl"
        write_frame_volume(path, volume)
        back = read_frame_volume(path, path.read_bytes())
        assert back.shape == (5, 20, 18)
        assert back.frame_rate == pytest.approx(12.5)
        assert np.abs(back.frames - volume.frames).max() <= 0.5 / 255

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.fvl"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            read_frame_volume(path, path.read_bytes())

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="minimum"):
            FrameVolume(frames=np.zeros((2, 16, 16)), frame_rate=10.0)
