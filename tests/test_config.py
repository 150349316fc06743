"""Flat dotted-key config grammar and value coercion."""

import pytest

from jamlink.config import coerce, load_config, parse_config_text
from jamlink.errors import ConfigError


class TestParse:
    def test_basic_lines(self):
        text = "experiment.preset = fig4\nrun.blocks = 20\n"
        got = parse_config_text(text)
        assert got == {"experiment.preset": "fig4", "run.blocks": "20"}

    def test_comments_and_blanks_ignored(self):
        text = "# top comment\n\nframe.n = 8\n   \n# tail\n"
        assert parse_config_text(text) == {"frame.n": "8"}

    def test_whitespace_around_equals(self):
        got = parse_config_text("a.b=1\nc.d   =   2\n")
        assert got == {"a.b": "1", "c.d": "2"}

    def test_deep_keys_allowed(self):
        got = parse_config_text("a.b.c = x\n")
        assert got == {"a.b.c": "x"}

    def test_missing_dot_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a.b = 1\nplainkey = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_text("a.b 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_source_name_in_message(self):
        with pytest.raises(ConfigError, match="myfile.cfg"):
            parse_config_text("bad line\n", source="myfile.cfg")

    def test_value_may_contain_equals(self):
        got = parse_config_text("a.b = x=y\n")
        assert got == {"a.b": "x=y"}


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("experiment.preset = fig2\nrun.blocks = 5\n")
        assert load_config(p)["run.blocks"] == "5"

    def test_missing_file_wrapped_as_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="absent.cfg"):
            load_config(tmp_path / "absent.cfg")


class TestCoerce:
    def test_int(self):
        assert coerce("42", "int", "k") == 42
        # exactly, past float's 53 bits: a seed given to --seed goes here
        assert coerce(str(2**53 + 1), "int", "k") == 2**53 + 1

    def test_int_rejects_float_text(self):
        with pytest.raises(ConfigError, match="k"):
            coerce("4.2", "int", "k")

    def test_float(self):
        assert coerce("2.5e3", "float", "k") == 2500.0

    def test_bool_truthy_falsy(self):
        assert coerce("true", "bool", "k") is True
        assert coerce("False", "bool", "k") is False
        assert coerce("1", "bool", "k") is True
        assert coerce("no", "bool", "k") is False

    def test_bool_rejects_garbage(self):
        with pytest.raises(ConfigError):
            coerce("maybe", "bool", "k")

    def test_list_keeps_items_as_strings(self):
        # consumers convert items; mixed-type lists stay representable
        assert coerce("1, 2.5, x", "list", "k") == ["1", "2.5", "x"]

    def test_str_passthrough(self):
        assert coerce("fig4", "str", "k") == "fig4"

    def test_int_scientific(self):
        assert coerce("1e6", "int", "k") == 1_000_000
