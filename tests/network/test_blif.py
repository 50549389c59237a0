"""Tests for BLIF parsing and writing."""

import pytest

from repro.network import BlifError, parse_blif, read_blif, write_blif

EXAMPLE = """
# a comment
.model demo
.inputs a b c
.outputs y
.names a b t1
11 1
.names t1 c y
1- 1
-0 1
.end
"""


class TestParse:
    def test_basic(self):
        net = parse_blif(EXAMPLE)
        assert net.name == "demo"
        assert net.inputs == ["a", "b", "c"]
        assert net.outputs == ["y"]
        out = net.evaluate_outputs({"a": 1, "b": 1, "c": 1})
        assert out["y"] is True

    def test_offset_rows(self):
        text = """
.model offset
.inputs a b
.outputs y
.names a b y
11 0
.end
"""
        net = parse_blif(text)
        # Off-set row 11 means y = !(a & b)
        assert net.evaluate_outputs({"a": 1, "b": 1})["y"] is False
        assert net.evaluate_outputs({"a": 0, "b": 1})["y"] is True

    def test_constant_one(self):
        text = ".model k\n.inputs a\n.outputs y\n.names y\n1\n.end\n"
        net = parse_blif(text)
        assert net.evaluate_outputs({"a": 0})["y"] is True

    def test_constant_zero(self):
        text = ".model k\n.inputs a\n.outputs y\n.names y\n.end\n"
        net = parse_blif(text)
        assert net.evaluate_outputs({"a": 0})["y"] is False

    def test_continuation_lines(self):
        text = (".model c\n.inputs a b\n.outputs y\n"
                ".names a \\\nb y\n11 1\n.end\n")
        net = parse_blif(text)
        assert net.evaluate_outputs({"a": 1, "b": 1})["y"] is True

    def test_mixed_phases_rejected(self):
        text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_bad_row_width_rejected(self):
        text = ".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_undefined_output_rejected(self):
        text = ".model m\n.inputs a\n.outputs ghost\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_unsupported_construct_rejected(self):
        text = ".model m\n.inputs a\n.outputs a\n.latch a b 0\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    @pytest.mark.parametrize("outputs", [".outputs\n", ""])
    def test_network_without_outputs_rejected(self, outputs):
        text = (".model m\n.inputs a b\n" + outputs +
                ".names a b y\n11 1\n.end\n")
        with pytest.raises(BlifError, match="no primary outputs"):
            parse_blif(text, source="empty.blif")


class TestRoundtrip:
    def test_write_then_parse_preserves_function(self):
        net = parse_blif(EXAMPLE)
        text = write_blif(net)
        again = parse_blif(text)
        for m in range(8):
            values = {"a": m & 1, "b": m >> 1 & 1, "c": m >> 2 & 1}
            assert (net.evaluate_outputs(values)
                    == again.evaluate_outputs(values))

    def test_write_constants(self):
        text = (".model k\n.inputs a\n.outputs y z\n"
                ".names y\n1\n.names z\n.end\n")
        net = parse_blif(text)
        again = parse_blif(write_blif(net))
        out = again.evaluate_outputs({"a": 0})
        assert out == {"y": True, "z": False}

    def test_file_roundtrip(self, tmp_path):
        net = parse_blif(EXAMPLE)
        path = tmp_path / "demo.blif"
        write_blif(net, path)
        again = read_blif(path)
        assert again.inputs == net.inputs
        assert again.outputs == net.outputs
