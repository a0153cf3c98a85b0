import math
import random

from treeaa import wire


def test_frame_roundtrip():
    buf = wire.frame(wire.TAG_VALUE, b"hello")
    assert wire.parse_frame(buf) == (wire.TAG_VALUE, b"hello")


def test_frame_rejects_truncation_and_padding():
    buf = wire.frame(wire.TAG_ECHO, b"abc")
    assert wire.parse_frame(buf[:-1]) is None
    assert wire.parse_frame(buf + b"x") is None
    assert wire.parse_frame(b"") is None


def test_vector_roundtrip():
    entries = [b"", None, b"xy", None, b"\x00\x01"]
    body = wire.encode_vector(entries)
    assert wire.decode_vector(body, 5) == entries


def test_vector_rejects_bad_flag_and_sizes():
    assert wire.decode_vector(b"\x02", 1) is None
    assert wire.decode_vector(b"\x01\x00\x00", 1) is None  # a cut length field
    assert wire.decode_vector(b"\x01\x00\x00\x00\x05ab", 1) is None
    body = wire.encode_vector([b"a", b"b"])
    assert wire.decode_vector(body, 3) is None
    assert wire.decode_vector(body + b"\x00", 2) is None


def test_double_roundtrip():
    rng = random.Random("wire")
    for _ in range(200):
        x = rng.uniform(-1e9, 1e9)
        assert wire.decode_double(wire.encode_double(x)) == x


def test_double_rejects_nonfinite_and_bad_length():
    assert wire.decode_double(wire.encode_double(math.nan)) is None
    assert wire.decode_double(wire.encode_double(math.inf)) is None
    assert wire.decode_double(b"\x00" * 7) is None
    assert wire.decode_double(b"\x00" * 9) is None


def test_path_roundtrip():
    path = ("v1", "a longer label", "ünïcødé")
    assert wire.decode_path(wire.encode_path(path)) == path
    assert wire.decode_path(wire.encode_path(())) == ()


def test_path_rejects_garbage():
    assert wire.decode_path(b"") is None
    assert wire.decode_path(b"\xff\xff\xff\xff") is None
    good = wire.encode_path(("a", "b"))
    assert wire.decode_path(good[:-1]) is None
    assert wire.decode_path(good + b"\x00") is None
    assert wire.decode_path(b"\x00\x00\x00\x01\x00\x02\xff\xfe") is None
