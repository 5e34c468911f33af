import struct

import numpy as np
import pytest

from emdflow.tensor_io import (
    DenseTensor, LabeledSetCollection, ManifestError, NonFiniteValueError,
    TensorFormatError, TruncatedPayloadError, load_collection, load_tensor,
    save_collection, save_tensor,
)


def test_round_trip_bit_exact(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 5))
    t = DenseTensor.from_array(arr)
    path = tmp_path / "t.dtn"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back == t
    assert back.as_array().shape == (3, 4, 5)
    assert np.array_equal(back.as_array(), arr)


def test_header_layout(tmp_path):
    t = DenseTensor.from_array(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "t.dtn"
    save_tensor(t, path)
    raw = path.read_bytes()
    assert raw[:4] == b"DTN1"
    assert struct.unpack_from("<I", raw, 4)[0] == 2
    assert struct.unpack_from("<2Q", raw, 8) == (2, 3)
    assert len(raw) == 8 + 16 + 6 * 8


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.dtn"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_truncated_payload(tmp_path):
    t = DenseTensor.from_array(np.ones((2, 2)))
    path = tmp_path / "t.dtn"
    save_tensor(t, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TruncatedPayloadError):
        load_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    t = DenseTensor.from_array(np.ones(3))
    path = tmp_path / "t.dtn"
    save_tensor(t, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_non_finite_payload(tmp_path):
    path = tmp_path / "t.dtn"
    data = np.array([1.0, np.nan, 2.0])
    with open(path, "wb") as fh:
        fh.write(b"DTN1" + struct.pack("<IQ", 1, 3) + data.tobytes())
    with pytest.raises(NonFiniteValueError) as exc:
        load_tensor(path)
    assert "index 1" in str(exc.value)


def test_shape_data_mismatch():
    with pytest.raises(TensorFormatError):
        DenseTensor(shape=(2, 2), data=np.ones(3))


def test_empty_shape_rejected():
    with pytest.raises(TensorFormatError):
        DenseTensor(shape=(), data=np.ones(1))


def test_collection_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    sets = tuple((i % 3, DenseTensor.from_array(rng.standard_normal((2, 2, 4))))
                 for i in range(6))
    col = LabeledSetCollection(sets=sets, class_count=3)
    manifest = save_collection(col, tmp_path / "col")
    back = load_collection(manifest)
    assert back.class_count == 3
    assert len(back.sets) == 6
    for (la, ta), (lb, tb) in zip(col.sets, back.sets):
        assert la == lb and ta == tb
    assert sorted(back.by_class()) == [0, 1, 2]


def test_collection_channel_mismatch():
    a = DenseTensor.from_array(np.ones((2, 2, 3)))
    b = DenseTensor.from_array(np.ones((2, 2, 4)))
    with pytest.raises(ManifestError):
        LabeledSetCollection(sets=((0, a), (0, b)), class_count=1)


def test_collection_label_out_of_range():
    a = DenseTensor.from_array(np.ones((1, 1, 2)))
    with pytest.raises(ManifestError):
        LabeledSetCollection(sets=((5, a),), class_count=2)


def test_manifest_malformed_line(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("0 no_tab_here\n")
    with pytest.raises(ManifestError):
        load_collection(manifest)


def test_manifest_relative_paths(tmp_path):
    t = DenseTensor.from_array(np.ones((1, 1, 2)))
    sub = tmp_path / "col"
    manifest = save_collection(LabeledSetCollection(sets=((0, t),), class_count=1), sub)
    # load via a relative-looking manifest path from another cwd
    assert load_collection(manifest).sets[0][1] == t


def test_negative_dimension_rejected():
    with pytest.raises(TensorFormatError, match="negative dimension"):
        DenseTensor(shape=(2, -1), data=np.zeros(0))


@pytest.mark.parametrize("raw, match", [
    (b"DTN1" + struct.pack("<I", 0), "rank 0 tensor"),
    (b"DTN1" + struct.pack("<I", 3) + struct.pack("<2Q", 1, 1), "header truncated"),
])
def test_bad_header_rejected(tmp_path, raw, match):
    path = tmp_path / "t.dtn"
    path.write_bytes(raw)
    with pytest.raises(TensorFormatError, match=match):
        load_tensor(path)


@pytest.mark.parametrize("label, match", [("x", "bad label 'x'"), ("1.5", "bad label '1.5'"),
                                          ("-1", "negative label")])
def test_manifest_rejects_labels(tmp_path, label, match):
    save_tensor(DenseTensor.from_array(np.ones((1, 1, 2))), tmp_path / "t.dtn")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{label}\tt.dtn\n")
    with pytest.raises(ManifestError, match=match):
        load_collection(manifest)
