from unittest import mock

import numpy as np
import pytest

from hirank import dataset
from hirank.dataset import (
    FEATURES_FILE,
    SPLIT_FILE,
    TAXONOMY_FILE,
    RetrievalDataset,
    TextFile,
    format_features,
    format_split,
    load_dataset,
    parse_features,
    parse_split,
    read_file,
    read_text,
    write_dataset,
    write_text_atomic,
)
from hirank.errors import (
    DuplicateInstanceError,
    EmptyInputError,
    HirankError,
    MalformedRecordError,
    UnknownInstanceError,
)
from hirank.taxonomy import parse_taxonomy

TAXONOMY = "a1\tr/x/u\na2\tr/x/u\nb1\tr/y/v\nb2\tr/y/w\n"


def small_dataset():
    tax = parse_taxonomy(TAXONOMY)
    ids = ("a1", "a2", "b1", "b2")
    features = np.arange(8, dtype=np.float64).reshape(4, 2) / 7.0
    return RetrievalDataset(tax, ids, features, frozenset({"v"}))


class TestRetrievalDataset:
    def test_split_properties(self):
        ds = small_dataset()
        assert ds.holdout_ids == frozenset({"b1"})
        assert ds.train_ids == ("a1", "a2", "b2")

    def test_feature_row_count_must_match(self):
        tax = parse_taxonomy(TAXONOMY)
        with pytest.raises(ValueError):
            RetrievalDataset(tax, ("a1",), np.zeros((2, 3)))

    def test_missing_feature_row(self):
        tax = parse_taxonomy(TAXONOMY)
        with pytest.raises(MalformedRecordError, match="no feature row"):
            RetrievalDataset(tax, ("a1", "a2", "b1"), np.zeros((3, 2)))

    def test_extra_instance_rejected(self):
        tax = parse_taxonomy(TAXONOMY)
        ids = ("a1", "a2", "b1", "b2", "zz")
        with pytest.raises(UnknownInstanceError):
            RetrievalDataset(tax, ids, np.zeros((5, 2)))

    def test_nonfinite_features_rejected(self):
        tax = parse_taxonomy(TAXONOMY)
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            RetrievalDataset(tax, ("a1", "a2", "b1", "b2"), bad)

    def test_unknown_split_label_rejected(self):
        tax = parse_taxonomy(TAXONOMY)
        with pytest.raises(MalformedRecordError, match="split names unknown"):
            RetrievalDataset(
                tax, ("a1", "a2", "b1", "b2"), np.zeros((4, 2)), frozenset({"zz"})
            )


class TestParseFeatures:
    def test_round_trip_is_exact(self):
        ids = ("p", "q")
        matrix = np.array([[0.1, -2.5e-17], [1 / 3, 7.0]])
        back_ids, back = parse_features(format_features(ids, matrix))
        assert back_ids == ids
        assert np.array_equal(back, matrix)

    def test_round_trip_non_ascii(self):
        ids = ("é1", "漢2")
        matrix = np.array([[0.5], [-1.25]])
        back_ids, back = parse_features(format_features(ids, matrix))
        assert back_ids == ids
        assert np.array_equal(back, matrix)

    def test_malformed_line(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse_features("a\t1.0\nb\n")

    def test_bad_float(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            parse_features("a\t1.0,zap\n")

    def test_ragged_rows(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse_features("a\t1.0,2.0\nb\t3.0\n")

    def test_duplicate_id(self):
        with pytest.raises(DuplicateInstanceError, match="line 2"):
            parse_features("a\t1.0\na\t2.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_names_line(self, value):
        with pytest.raises(MalformedRecordError, match="line 2: feature row for 'b' is not finite"):
            parse_features(f"a\t1.0,2.0\nb\t3.0,{value}\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_features("\n")


class TestParseSplit:
    def test_basic(self):
        assert parse_split("v\nw\n") == ("v", "w")
        assert parse_split("") == ()

    def test_rejects_paths(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            parse_split("r/x/u\n")

    def test_rejects_tabs(self):
        with pytest.raises(MalformedRecordError):
            parse_split("a\tb\n")

    def test_trailing_tab_is_malformed(self):
        # a tab is a field separator in every format, also at the end of a line
        with pytest.raises(MalformedRecordError, match="line 2: expected 'leaf_label'"):
            parse_split("v\nw\t\n")

    def test_surrounding_spaces_stripped(self):
        assert parse_split(" v \r\n   \nw\n") == ("v", "w")

    def test_round_trip_non_ascii(self):
        assert parse_split(format_split(["漢", "é"])) == ("é", "漢")

    def test_duplicate(self):
        with pytest.raises(DuplicateInstanceError, match="line 2"):
            parse_split("v\nv\n")

    def test_format_sorts(self):
        assert format_split(["w", "v"]) == "v\nw\n"
        assert format_split([]) == ""


class TestReadText:
    def test_decodes_utf8(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes("é\t漢\r\n".encode("utf-8"))
        assert read_text(path) == "é\t漢\n"

    def test_not_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(MalformedRecordError, match=f"^{path}: not UTF-8 at byte 3$"):
            read_text(path)

    def test_os_errors_pass_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_text(tmp_path / "missing.tsv")


def read_blocks(path, block: int) -> list[str]:
    """The blocks of `TextFile(path)` at reads of `block` bytes."""
    with mock.patch.object(dataset, "_BLOCK", block):
        return list(TextFile(path))


class TestTextFile:
    def test_a_line_longer_than_a_read_is_read_whole(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tlong line\nb\n")
        assert read_blocks(path, 3) == ["a\tlong line\n", "b\n"]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_reads_cut_no_character_and_no_crlf_pair(self, tmp_path, block):
        # a read of 2 bytes ends inside "漢" (3 bytes), one of 3 between "\r" and "\n";
        # the last line has no newline
        path = tmp_path / "t.tsv"
        path.write_bytes("é\r\n漢\r\nz".encode("utf-8"))
        blocks = read_blocks(path, block)
        assert "".join(blocks) == path.read_text(encoding="utf-8") == "é\n漢\nz"
        assert all(b.endswith("\n") for b in blocks[:-1])
        if block == 2:
            assert blocks == ["é\n", "漢\n", "z"]

    def test_lone_carriage_returns_end_lines_as_in_text_mode(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\rb\r\r\nc\r")
        assert "".join(read_blocks(path, 2)) == path.read_text(encoding="utf-8") == "a\nb\n\nc\n"

    def test_bad_byte_in_a_later_block_is_named_at_its_offset_in_the_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"ok\nok\nok\nx\xff\n")
        with pytest.raises(MalformedRecordError, match=f"^{path}: not UTF-8 at byte 10$"):
            read_blocks(path, 3)

    def test_each_pass_reads_the_file_again(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\nb\n", encoding="utf-8")
        text = TextFile(path)
        assert list(text) == list(text) == ["a\nb\n"]


class TestReadFile:
    def test_returns_the_parse(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("v\nw\n", encoding="utf-8")
        assert read_file(path, parse_split) == ("v", "w")

    def test_parse_error_keeps_its_class_and_names_the_file(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("v\nv\n", encoding="utf-8")
        with pytest.raises(DuplicateInstanceError) as info:
            read_file(path, parse_split)
        assert str(info.value) == f"{path}: line 2: 'v' repeated"

    def test_other_value_error_becomes_malformed(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("zap", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=f"^{path}: could not convert"):
            read_file(path, float)

    def test_not_utf8_names_the_file_once(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"\xff")
        with pytest.raises(MalformedRecordError, match=f"^{path}: not UTF-8 at byte 0$"):
            read_file(path, parse_taxonomy)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "first\n")
        write_text_atomic(target, "second\n")
        assert target.read_text() == "second\n"
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "first\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(target, "lone \ud800 surrogate\n")  # UTF-8 cannot encode it
        assert target.read_text() == "first\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestDatasetIo:
    def test_directory_round_trip(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "data")
        back = load_dataset(tmp_path / "data")
        assert back.ids == ds.ids
        assert np.array_equal(back.features, ds.features)
        assert back.holdout_classes == ds.holdout_classes
        assert back.taxonomy.entries == ds.taxonomy.entries

    def test_directory_round_trip_non_ascii(self, tmp_path):
        text = TAXONOMY.replace("a", "é").replace("v", "ü")
        ids = ("é1", "é2", "b1", "b2")
        ds = RetrievalDataset(parse_taxonomy(text), ids, np.eye(4), frozenset({"ü"}))
        write_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.ids == ids
        assert back.holdout_classes == frozenset({"ü"})
        assert back.taxonomy.entries == ds.taxonomy.entries

    def test_split_file_is_optional(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path)
        (tmp_path / SPLIT_FILE).unlink()
        back = load_dataset(tmp_path)
        assert back.holdout_classes == frozenset()
        assert back.train_ids == back.ids

    @pytest.mark.parametrize(
        "name, text, message",
        [
            (FEATURES_FILE, "a1\t0,1\na2\t0,1\nb1\t0,1\nb2\t0,1\nzz\t0,1\n",
             "unknown instance id 'zz'"),
            (FEATURES_FILE, "a1\t0,1\na2\t0,1\nb1\t0,1\n", "have no feature row, e.g. 'b2'"),
            (SPLIT_FILE, "v\nq\n", "split names unknown leaf label 'q'"),
        ],
        ids=["unknown_feature_id", "missing_feature_row", "unknown_split_label"],
    )
    def test_consistency_error_names_its_file(self, tmp_path, name, text, message):
        write_dataset(small_dataset(), tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(HirankError) as info:
            load_dataset(tmp_path)
        assert str(info.value).startswith(f"{tmp_path / name}: ")
        assert message in str(info.value)

    def test_missing_features_file(self, tmp_path):
        (tmp_path / TAXONOMY_FILE).write_text(TAXONOMY)
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_written_files_present(self, tmp_path):
        write_dataset(small_dataset(), tmp_path)
        for name in (TAXONOMY_FILE, FEATURES_FILE, SPLIT_FILE):
            assert (tmp_path / name).exists()
