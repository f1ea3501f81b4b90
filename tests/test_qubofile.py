"""Tests for the portable QUBO penalty file format."""

from __future__ import annotations

import gc
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quborestrict import qubofile
from quborestrict.core import ConstructionError, ParameterError, QuboModel, RestrictionSpec
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

from helpers import SEPARATORS, TOKENS

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

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([encode_one_hot_general(RestrictionSpec(4, (1, 3))),
                            encode_half_integer_chain(RestrictionSpec(5, (1, 2, 3)))]),
           st.data())
    def test_accepted_text_is_canonical(self, encoded, data):
        # whatever mutated file the parser accepts, serializing it gives the same text
        lines = dumps(encoded).split("\n")[:-1]
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(lines) - 1))
            other = data.draw(st.integers(0, len(lines) - 1))
            action = data.draw(st.sampled_from(["token", "drop", "copy", "swap"]))
            if action == "token":
                tokens = lines[at].split(" ")
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
                lines[at] = " ".join(tokens)
            elif action == "drop":
                del lines[at]
            elif action == "copy":
                lines.insert(at, lines[other])
            else:
                lines[at], lines[other] = lines[other], lines[at]
            if not lines:
                break
        separator = data.draw(SEPARATORS)
        text = separator.join(lines) + data.draw(st.sampled_from([separator, ""]))
        try:
            parsed = loads(text)
        except QuboFileError:
            return
        assert dumps(parsed) == text

    @pytest.mark.parametrize("enabled, fmt", [
        (True, "text"), (False, "text"), (True, "json"), (False, "json"),
    ], ids=["collector on", "collector off", "json, collector on", "json, collector off"])
    def test_collector_paused_while_parsing(self, monkeypatch, enabled, fmt):
        # the last term spoiled with a fourth token
        write, read, spoil, message = {
            "text": (dumps, loads, lambda text: text[:-1] + " 7\n", "expected 'i j coefficient'"),
            "json": (dumps_json, loads_json,
                     lambda text: text.replace('"\n    ]\n  ]', '", "7"]]'),
                     r"expected \[i, j, coefficient\]"),
        }[fmt]
        text = write(encode_one_hot_general(RestrictionSpec(9, (2, 5, 9))))
        read_terms, during = qubofile._read_terms, []

        def recorded(lines):
            during.append(gc.isenabled())
            return read_terms(lines)

        monkeypatch.setattr(qubofile, "_read_terms", recorded)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert write(read(text)) == text
            assert gc.isenabled() is enabled
            with pytest.raises(QuboFileError, match=message):
                read(spoil(text))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert len(during) > 1 and not any(during)

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

    def test_header_without_terms(self):
        with pytest.raises(QuboFileError, match="^truncated file: no terms section$"):
            loads("qubo-restriction v1\nkind single_value\n")

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

    def test_only_package_errors_become_file_errors(self, monkeypatch):
        # two denominators of about 9,000 bits each pass the 12,000-bit cap together
        text = self.text.replace("offset 1", f"offset 1/{2 ** 9000}").replace(
            "\n0 0 1\n", f"\n0 0 1/{3 ** 5700}\n")
        with pytest.raises(QuboFileError, match=r"^inconsistent file contents: exact "
                           r"coefficients need \d+ bits, more than the 12000-bit cap"):
            loads(text)

        def broken(*args, **kwargs):
            raise ValueError("a bug, not a bad file")

        monkeypatch.setattr(qubofile.QuboModel, "_scaled", broken)
        with pytest.raises(ValueError, match="^a bug, not a bad file$") as caught:
            loads(self.text)
        assert type(caught.value) is ValueError

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
        # values each record refuses, not the reader
        ("n_total 6\nn_problem 4\nn_dummies 2\n", "n_total -1\nn_problem -1\nn_dummies 0\n"),
        ("n_total 6\nn_problem 4\nn_dummies 2\n", "n_total 2\nn_problem 3\nn_dummies -1\n"),
        ("residual_energy 0", "residual_energy -1"),
        # the header keys come once each, in the order dumps writes them
        ("n_total 6\nn_problem 4\n", "n_problem 4\nn_total 6\n"),
        ("kind one_hot_general\nn_total 6\n", "n_total 6\nkind one_hot_general\n"),
        ("lambda1 1\nlambda2 1\n", "lambda2 1\nlambda1 1\n"),
        ("lambda2 1\n", "lambda2 1\nlambda2 1\n"),
        # every line ends in \n alone, the last one too
        ("\n5 5 8\n", "\n5 5 8"),
        ("n_total 6\n", "n_total 6\r\n"),
        ("\n0 0 1\n", "\n0 0 1\r\n"),
        ("\n0 0 1\n", "\n0 0 1\x1c"),
        ("\n0 0 1\n", "\n0 0 1\u2028"),
    ])
    def test_non_canonical_forms_are_refused(self, old, new):
        assert old in self.text
        with pytest.raises(QuboFileError) as failure:
            loads(self.text.replace(old, new, 1))
        assert "\n" not in str(failure.value)

    @pytest.mark.parametrize("old, new, number", [
        pytest.param("\n0 3 2\n", "\n0 3\n", 14, id="shape"),
        pytest.param("\n1 1 1\n1 2 2\n", "\n1 2 2\n1 1 1\n", 18, id="order"),
        pytest.param("\n2 4 -2\n", "\n4 2 -2\n", 24, id="i > j"),
        pytest.param("\n3 3 1\n", "\n3 3 0\n", 26, id="zero"),
        pytest.param("\n0 2 2\n", "\n0 2 2/4\n", 13, id="not reduced"),
    ])
    def test_refusal_names_the_line(self, old, new, number):
        with pytest.raises(QuboFileError, match=f"line {number}: expected 'i j coefficient'"):
            loads(self.text.replace(old, new, 1))

    def test_index_beyond_n_total(self):
        with pytest.raises(QuboFileError, match=r"key \(5, 6\) is not an ordered in-range pair"):
            loads(self.text.replace("terms 20", "terms 21") + "5 6 1\n")

    def test_a_bool_key_cannot_reach_a_file(self):
        # (True, True) once passed the key check, and dumps wrote "True True 1", which
        # loads refuses
        with pytest.raises(ConstructionError, match=r"^coefficient key \(True, True\) is not "
                           r"an ordered in-range pair$"):
            QuboModel(2, 2, {(True, True): 1})

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
        # values each record refuses, not the reader
        (lambda p: p.update(n_total=-1, n_problem=-1, n_dummies=0),
         r"^inconsistent file contents: n_total must be an integer of at least 0, got -1$"),
        (lambda p: p.update(n_total=2, n_problem=3, n_dummies=-1),
         r"^inconsistent file contents: n_problem must be an integer in \[0, n_total=2\], got 3$"),
        (lambda p: p.update(residual_energy="-1"),
         "^inconsistent file contents: residual_energy must be non-negative$"),
        (lambda p: p["terms"][0].__setitem__(0, 0.9), "terms entry 0: bad integer 0.9"),
        (lambda p: p["terms"][2].__setitem__(1, float("inf")), "terms entry 2: bad integer inf"),
        (lambda p: p.update(comment="x"), "unknown header keys: comment"),
        (lambda p: p["terms"].append(p["terms"][0]),
         r"terms entry 20: .* keys increasing, got \[0, 0, '1'\]"),
        (lambda p: p["terms"].append([0, 1]), r"expected \[i, j, coefficient\]"),
        (lambda p: p.update(terms={}), "'terms' list"),
        (lambda p: p.pop("offset"), "missing header keys: offset"),
        (lambda p: p.update(lambda1=True), "header lambda1: bad rational True"),
        (lambda p: p.update(kind=None), "unknown encoding kind None"),
        # the reader takes what dumps_json writes: canonical strings, keys in order, no zeros
        (lambda p: p.update(lambda1=0.5), "header lambda1: bad rational 0.5"),
        (lambda p: p["terms"][0].__setitem__(2, 1), r"terms entry 0: .* got \[0, 0, 1\]"),
        (lambda p: p["terms"].insert(0, p["terms"].pop(1)), r"terms entry 1: .* got \[0, 0, "),
        (lambda p: p["terms"][-1].__setitem__(2, "0"), r"terms entry 19: .*, '0'\]"),
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
        with pytest.raises(ParameterError, match="^unknown format 'yaml'$"):
            save(encoded, tmp_path / "x", fmt="yaml")
