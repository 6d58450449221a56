import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bofsent.config import PipelineConfig, config_from_dict, dump_config
from bofsent.corpus import (
    Manifest,
    ManifestError,
    Polarity,
    Segment,
    binarize,
    filter_split,
    load_manifest,
    save_manifest,
)
from bofsent.prosody import ProsodyConfig
from bofsent.video import DetectorConfig


def _ids(manifest):
    return tuple(segment.id for segment in manifest)


def _segment(seg_id, split="train", sentiment=1.0):
    return Segment(
        id=seg_id,
        audio_path=f"audio/{seg_id}.pcm",
        video_path=f"video/{seg_id}.fvl",
        sentiment=sentiment,
        split=split,
    )


class TestBinarize:
    def test_strictly_positive(self):
        assert binarize(2.4) is Polarity.POSITIVE

    def test_zero_is_negative(self):
        assert binarize(0.0) is Polarity.NEGATIVE

    def test_lower_boundary(self):
        assert binarize(-3.0) is Polarity.NEGATIVE

    def test_threshold_property(self):
        rng = np.random.default_rng(0)
        for s in rng.uniform(-3.0, 3.0, size=2000):
            assert (binarize(float(s)) is Polarity.POSITIVE) == (s > 0)


class TestLoadManifest:
    def test_two_valid_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '# comment\n'
            '{"id": "a", "audio": "a.pcm", "video": "a.fvl", "sentiment": 1.5, "split": "train"}\n'
            '\n'
            '{"id": "b", "audio": "b.pcm", "video": "b.fvl", "sentiment": -2.0, "split": "test"}\n'
        )
        manifest = load_manifest(path)
        assert _ids(manifest) == ("a", "b")
        assert manifest.segments[0].sentiment == 1.5
        assert manifest.base_dir == tmp_path

    def test_sentiment_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio": "a", "video": "a", "sentiment": 1.0, "split": "train"}\n'
            '{"id": "b", "audio": "b", "video": "b", "sentiment": 4.0, "split": "train"}\n'
        )
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert len(load_manifest(path)) == 0

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        line = '{"id": "a", "audio": "a", "video": "a", "sentiment": 0.0, "split": "train"}\n'
        path.write_text(line + line)
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_unknown_split(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a", "video": "a", "sentiment": 0.0, "split": "dev"}\n')
        with pytest.raises(ManifestError, match="split"):
            load_manifest(path)

    def test_parse_failure_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a"\n')
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(path)

    @pytest.mark.parametrize("seg_id", ["../../../escaped", "a/b", "a\\b", "a\0b", "a\tb", "a\rb", "a\nb", ".", ".."])
    def test_id_that_is_no_file_name_names_line(self, tmp_path, seg_id):
        # An id names the segment's descriptor files and a field of the prediction TSVs.
        path = tmp_path / "m.jsonl"
        record = {"id": "a", "audio": "a", "video": "a", "sentiment": 0.0, "split": "train"}
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": seg_id}) + "\n")
        with pytest.raises(ManifestError, match="line 2: id"):
            load_manifest(path)

    def test_id_that_utf8_cannot_encode_names_line(self, tmp_path):
        # JSON's escape for a lone surrogate reads, but neither the manifest nor a descriptor file could hold it.
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a\\ud800", "audio": "a", "video": "a", "sentiment": 0.0, "split": "train"}\n')
        with pytest.raises(ManifestError, match="line 1: id"):
            load_manifest(path)

    def test_boolean_sentiment_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a", "video": "a", "sentiment": true, "split": "train"}\n')
        with pytest.raises(ManifestError, match="line 1: Segment.sentiment must be a JSON number, not bool True"):
            load_manifest(path)

    @pytest.mark.parametrize("sentiment", ["1.5", "nan", None, [1.0]])
    def test_non_number_sentiment_names_line(self, tmp_path, sentiment):
        path = tmp_path / "m.jsonl"
        record = {"id": "a", "audio": "a", "video": "a", "sentiment": 0.0, "split": "train"}
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "b", "sentiment": sentiment}) + "\n")
        message = f"line 2: Segment.sentiment must be a JSON number, not {type(sentiment).__name__} {sentiment!r}"
        with pytest.raises(ManifestError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize("sample_rate", [True, False, 0, -8000, 16000.0, "16000"])
    def test_bad_sample_rate_names_line(self, tmp_path, sample_rate):
        path = tmp_path / "m.jsonl"
        record = {"id": "a", "audio": "a", "video": "a", "sentiment": 0.0, "split": "train"}
        bad = {**record, "id": "b", "sample_rate": sample_rate}
        path.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ManifestError, match=rf"line 2: (Segment\.)?sample_rate .*{re.escape(repr(sample_rate))}"):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["audio", "video"])
    @pytest.mark.parametrize("value", [None, "", 3, ["a.pcm"]])
    def test_media_path_not_a_string_names_line(self, tmp_path, field, value):
        path = tmp_path / "m.jsonl"
        record = {"id": "a", "audio": "a", "video": "a", "sentiment": 0.0, "split": "train"}
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "b", field: value}) + "\n")
        with pytest.raises(ManifestError, match=rf"line 2: (Segment\.)?{field} .*{re.escape(repr(value))}"):
            load_manifest(path)

    def test_roundtrip(self, tmp_path):
        original = Manifest(
            segments=(
                _segment("a", "train", 1.25),
                Segment(id="b", audio_path="b.pcm", video_path="b.fvl", sentiment=-0.5,
                        split="validation", sample_rate=8000),
                _segment("c", "test", 0.0),
            )
        )
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_manifest(original, first)
        loaded = load_manifest(first)
        save_manifest(loaded, second)
        again = load_manifest(second)
        assert loaded.segments == original.segments
        assert again.segments == loaded.segments
        assert first.read_text() == second.read_text()


RECORD = {"id": "a", "audio": "a.pcm", "video": "a.fvl", "sentiment": 0.5, "split": "train"}
# (input, field): "manifest" is one manifest record, "config" the top level of a config, "audio"/"video" its sections.
FIELDS = [("manifest", key) for key in (*RECORD, "sample_rate")] + [
    (section, f.name)
    for section, cls in (("config", PipelineConfig), ("audio", ProsodyConfig), ("video", DetectorConfig))
    for f in dataclasses.fields(cls)
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FIELDS), value=JSON_VALUES)
@example(target=("manifest", "sentiment"), value=10**401)
@example(target=("audio", "n_harmonics"), value=10**400)
def test_any_json_value_in_any_field_is_read_or_rejected(tmp_path_factory, target, value):
    """One reader builds both inputs: any JSON value gives a valid object or ``ValueError``, never another error."""
    section, key = target
    if section == "manifest":
        path = tmp_path_factory.getbasetemp() / "any_value.jsonl"
        path.write_text(json.dumps({**RECORD, key: value}) + "\n")
        try:
            manifest = load_manifest(path)
        except ManifestError:
            return
        assert len(manifest) == 1 and type(manifest.segments[0].sentiment) is float
        return
    try:
        config = config_from_dict({key: value} if section == "config" else {section: {key: value}})
    except ValueError:
        return
    assert dump_config(config_from_dict(json.loads(dump_config(config)))) == dump_config(config)


class TestFilterSplit:
    def test_filters_in_order(self):
        manifest = Manifest(segments=(_segment("a"), _segment("b", "validation"), _segment("c")))
        assert _ids(filter_split(manifest, "train")) == ("a", "c")

    def test_empty_result(self):
        manifest = Manifest(segments=(_segment("a"),))
        assert len(filter_split(manifest, "test")) == 0

    def test_empty_manifest(self):
        assert len(filter_split(Manifest(segments=()), "train")) == 0

    def test_rejects_unknown_token(self):
        with pytest.raises(ValueError):
            filter_split(Manifest(segments=()), "dev")

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        splits = ["train", "validation", "test"]
        segments = tuple(
            _segment(f"s{i}", splits[int(rng.integers(3))], float(rng.uniform(-3, 3)))
            for i in range(50)
        )
        manifest = Manifest(segments=segments)
        parts = [_ids(filter_split(manifest, s)) for s in splits]
        flattened = [i for part in parts for i in part]
        assert sorted(flattened) == sorted(_ids(manifest))
        assert len(set(flattened)) == len(flattened)
