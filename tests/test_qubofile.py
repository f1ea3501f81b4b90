"""Tests for the portable QUBO penalty file format."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from quborestrict.core import RestrictionSpec
from quborestrict.encoders import (
    EncoderParams,
    applicable_encoders,
    encode_half_integer_chain,
    encode_one_hot_general,
)
from quborestrict.qubofile import (
    QuboFileError,
    dumps,
    dumps_json,
    load,
    loads,
    loads_json,
    save,
)

SPECS = [
    RestrictionSpec(4, (2,)),
    RestrictionSpec(5, (1, 2)),
    RestrictionSpec(5, (1, 2, 3)),
    RestrictionSpec(6, (0, 2, 4)),
    RestrictionSpec(9, (2, 5, 9)),
    RestrictionSpec(7, (1, 2, 3, 4, 5)),
]


def all_encodings():
    params = EncoderParams(lambda1=F(3, 2), lambda2=F(2))
    for spec in SPECS:
        for encoder in applicable_encoders(spec).values():
            yield encoder(spec, params)


class TestTextRoundTrip:
    def test_parse_inverts_serialize(self):
        for encoded in all_encodings():
            assert loads(dumps(encoded)) == encoded

    def test_serialize_is_byte_stable(self):
        for encoded in all_encodings():
            text = dumps(encoded)
            assert dumps(loads(text)) == text

    def test_coefficients_are_exact_fraction_strings(self):
        encoded = encode_half_integer_chain(RestrictionSpec(5, (1, 2, 3)))
        text = dumps(encoded)
        assert "residual_energy 1/4" in text
        assert "offset 9/4" in text
        assert "0 0 -2" in text
        assert "." not in text.splitlines()[-1]

    def test_no_lambda2_line_for_single_term_encodings(self):
        encoded = encode_half_integer_chain(RestrictionSpec(5, (1, 2, 3)))
        assert "lambda2" not in dumps(encoded)
        two_term = encode_one_hot_general(RestrictionSpec(4, (1, 3)))
        assert "lambda2 1" in dumps(two_term)


class TestParseErrors:
    def setup_method(self):
        self.text = dumps(encode_one_hot_general(RestrictionSpec(4, (1, 3))))

    def test_bad_magic(self):
        with pytest.raises(QuboFileError):
            loads("qubo-restriction v9\n" + self.text.split("\n", 1)[1])

    def test_truncated_terms(self):
        lines = self.text.splitlines()
        with pytest.raises(QuboFileError, match="terms"):
            loads("\n".join(lines[:-3]) + "\n")

    def test_missing_header_key(self):
        lines = [ln for ln in self.text.splitlines() if not ln.startswith("offset")]
        with pytest.raises(QuboFileError, match="missing header"):
            loads("\n".join(lines) + "\n")

    def test_unknown_header_key(self):
        lines = self.text.splitlines()
        lines.insert(1, "flavour strawberry")
        with pytest.raises(QuboFileError, match="unknown header"):
            loads("\n".join(lines) + "\n")

    def test_bad_coefficient_token(self):
        with pytest.raises(QuboFileError, match="bad rational"):
            loads(self.text.replace("lambda1 1", "lambda1 pi"))

    def test_unknown_kind(self):
        with pytest.raises(QuboFileError, match="unknown encoding kind"):
            loads(self.text.replace("one_hot_general", "mystery"))

    def test_inconsistent_dummy_count(self):
        with pytest.raises(QuboFileError, match="inconsistent"):
            loads(self.text.replace("n_dummies 2", "n_dummies 1"))

    def test_empty_input(self):
        with pytest.raises(QuboFileError):
            loads("")

    @pytest.mark.parametrize("old, new", [
        # integers are ASCII 0 or -?[1-9][0-9]*
        ("n_total 6", "n_total 0_6"),
        ("n_total 6", "n_total 06"),
        ("n_total 6", "n_total +6"),
        ("n_total 6", "n_total  6"),
        ("n_total 6", "n_total 6 "),
        ("n_total 6", "n_total \u0666"),
        ("terms 20", "terms 020"),
        ("\n0 0 1\n", "\n+0 0 1\n"),
        ("\n0 0 1\n", "\n0  0 1\n"),
        ("\n0 0 1\n", "\n0 0 1 \n"),
        ("\n0 0 1\n", "\n0\t0 1\n"),
        ("\n0 0 1\n", "\n00 0 1\n"),
        ("\n0 5 -6\n", "\n0 \uff15 -6\n"),
        # a rational is the str of its own Fraction
        ("lambda1 1", "lambda1 2/2"),
        ("lambda1 1", "lambda1 1/1"),
        ("lambda1 1", "lambda1 1.0"),
        ("offset 1", "offset 1e0"),
        ("offset 1", "offset 1e100000"),
        ("offset 1", "offset 1e999999999"),
        ("offset 1", "offset " + "1" * 3001),
        ("residual_energy 0", "residual_energy -0"),
        ("\n0 5 -6\n", "\n0 5 -12/2\n"),
        ("\n0 5 -6\n", "\n0 5 -6/1\n"),
        ("\n0 5 -6\n", "\n0 5 -06\n"),
        ("\n0 5 -6\n", "\n0 5 0\n"),
        ("\n0 5 -6\n", "\n0 5 0/7\n"),
        # term lines are ordered pairs in increasing key order
        ("\n0 1 2\n0 2 2\n", "\n0 2 2\n0 1 2\n"),
        ("\n0 1 2\n0 2 2\n", "\n0 1 2\n0 1 2\n"),
        ("\n0 5 -6\n", "\n5 0 -6\n"),
        ("\n0 0 1\n", "\n-1 0 1\n"),
    ])
    def test_non_canonical_forms_are_refused(self, old, new):
        assert old in self.text
        with pytest.raises(QuboFileError) as failure:
            loads(self.text.replace(old, new, 1))
        assert "\n" not in str(failure.value)

    def test_refusal_names_the_line(self):
        with pytest.raises(QuboFileError, match="line 13: expected 'i j coefficient'"):
            loads(self.text.replace("\n0 2 2\n", "\n0 2 2/4\n"))

    def test_index_beyond_n_total(self):
        with pytest.raises(QuboFileError, match=r"key \(5, 6\) is not an ordered in-range pair"):
            loads(self.text.replace("terms 20", "terms 21") + "5 6 1\n")

    def test_huge_distinct_denominators_are_refused(self):
        # each literal is short enough, their common denominator is not
        first, second = 10**1990 + 1, 10**1990 + 3
        text = self.text.replace("\n0 1 2\n", f"\n0 1 1/{first}\n")
        with pytest.raises(QuboFileError, match="bit cap"):
            loads(text.replace("\n0 2 2\n", f"\n0 2 1/{second}\n"))


class TestJsonMirror:
    def test_round_trip(self):
        for encoded in all_encodings():
            assert loads_json(dumps_json(encoded)) == encoded

    def test_rejects_foreign_payload(self):
        with pytest.raises(QuboFileError):
            loads_json('{"format": "something-else"}')
        with pytest.raises(QuboFileError):
            loads_json("[1, 2, 3]")
        with pytest.raises(QuboFileError):
            loads_json("not json at all")


    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(n_total=6.7), "header n_total: bad integer 6.7"),
        (lambda p: p.update(n_total="6"), "header n_total: bad integer '6'"),
        (lambda p: p.update(n_problem=True), "header n_problem: bad integer True"),
        (lambda p: p.update(n_dummies=2.2), "header n_dummies: bad integer 2.2"),
        (lambda p: p.update(n_dummies=1), "inconsistent"),
        (lambda p: p["terms"][0].__setitem__(0, 0.9), "terms entry 0: bad integer 0.9"),
        (lambda p: p["terms"][2].__setitem__(1, float("inf")), "terms entry 2: bad integer inf"),
        (lambda p: p.update(comment="x"), "unknown header keys: comment"),
        (lambda p: p["terms"].append(p["terms"][0]), r"duplicate term \(0, 0\)"),
        (lambda p: p["terms"].append([0, 1]), r"expected \[i, j, coefficient\]"),
        (lambda p: p.update(terms={}), "'terms' list"),
        (lambda p: p.pop("offset"), "missing header keys: offset"),
        (lambda p: p.update(lambda1=True), "header lambda1: bad rational True"),
        (lambda p: p.update(kind=None), "unknown encoding kind None"),
    ])
    def test_held_to_the_text_rules(self, edit, message):
        payload = json.loads(dumps_json(encode_one_hot_general(RestrictionSpec(4, (1, 3)))))
        edit(payload)
        with pytest.raises(QuboFileError, match=message):
            loads_json(json.dumps(payload))

    def test_integer_literal_beyond_the_digit_limit(self):
        # json.loads raises a plain ValueError here where Python limits int digits
        with pytest.raises(QuboFileError):
            loads_json('{"n_total": ' + "9" * 5000 + "}")


class TestFileIO:
    def test_save_and_load_both_formats(self, tmp_path):
        encoded = encode_one_hot_general(RestrictionSpec(4, (1, 3)))
        text_path = tmp_path / "penalty.qubo"
        json_path = tmp_path / "penalty.json"
        save(encoded, text_path)
        save(encoded, json_path, fmt="json")
        assert load(text_path) == encoded
        assert load(json_path) == encoded

    def test_unknown_format(self, tmp_path):
        encoded = encode_one_hot_general(RestrictionSpec(4, (1, 3)))
        with pytest.raises(ValueError):
            save(encoded, tmp_path / "x", fmt="yaml")
