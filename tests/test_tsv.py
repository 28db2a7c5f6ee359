import pytest

from wwspot.augment import ManifestRow, read_manifest, write_manifest
from wwspot.cli import _read_references, _read_utt_frames
from wwspot.decode import Detection, read_detections, write_detections
from wwspot.lexicon import ConfusableSet, read_confusables, write_confusables
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample, read_mined, write_mined
from wwspot.tsv import DataError, write_tsv


def _write_utt_frames(frames, path):
    write_tsv(path, [(utt_id, str(count)) for utt_id, count in frames.items()])


def _write_references(refs, path):
    write_tsv(
        path,
        [(utt_id, str(s), str(e)) for utt_id, spans in refs.items() for s, e in spans],
    )


# name: (writer, reader, records with `text` in one text field,
#        the row and field that text lands in). Floats are exact at the
# writer's precision, so the records read back equal.
_FORMATS = {
    "confusables": (
        write_confusables,
        lambda path: read_confusables(path, "ww"),
        lambda text: ConfusableSet({"a": 1, text: 2}),
        (2, 1),
    ),
    "mined": (
        write_mined,
        read_mined,
        lambda text: [
            MinedExample("u0", POSITIVE, "ww", (0.5, 1.25), 0.875),
            MinedExample("u1", NEGATIVE, text, (0.25, 0.75), 0.625),
        ],
        (2, 3),
    ),
    "manifest": (
        write_manifest,
        read_manifest,
        lambda text: [
            ManifestRow("ctm-000000", "CTM", "u0", "wav/ctm-000000.wav", None, None),
            ManifestRow("rev-000001", "CTM+R+N", text, "wav/rev-000001.wav", 10.25, "rir-0001"),
        ],
        (2, 3),
    ),
    "detections": (
        write_detections,
        read_detections,
        lambda text: [Detection("u0", 10, 20, 15, 0.5), Detection(text, 0, 4, 2, 0.875)],
        (2, 1),
    ),
    "utt_frames": (
        _write_utt_frames,
        _read_utt_frames,
        lambda text: {"u0": 100, text: 7},
        (2, 1),
    ),
    "references": (
        _write_references,
        _read_references,
        lambda text: {"u0": [(10, 20), (30, 40)], text: [(0, 5)]},
        (3, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_writer_output_reads_back_equal(tmp_path, name):
    write, read, records, _ = _FORMATS[name]
    path = tmp_path / f"{name}.tsv"
    write(records("u1"), path)
    assert read(path) == records("u1")


@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_writer_refuses_tab_or_line_break_and_writes_nothing(tmp_path, name):
    write, _, records, (row, field) = _FORMATS[name]
    # "\udcff" is how Python names the byte 0xff of a non-UTF-8 file name
    for text, reason in (
        ("u\t1", "contains a tab or line break"),
        ("u\n1", "contains a tab or line break"),
        ("u\r1", "contains a tab or line break"),
        ("u\udcff1", "is not valid UTF-8"),
    ):
        path = tmp_path / f"{name}.tsv"
        with pytest.raises(DataError) as exc:
            write(records(text), path)
        assert type(exc.value) is DataError
        assert str(exc.value) == f"{path}: row {row}: field {field} {reason}"
        assert not path.exists()
