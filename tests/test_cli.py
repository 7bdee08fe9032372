"""CLI surface: outputs, JSON round trips, exit codes, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcover import cli, gf
from subcover.covers import cover_finite, cover_from_json, cover_to_json
from subcover.linalg import enumerate_vectors
from subcover.partitions import (
    mixed_partition,
    partition_from_json,
    partition_to_json,
    spread_partition,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNu:
    def test_lines(self, capsys):
        code, out, _ = run(capsys, "nu", "--p", "2", "--m", "1",
                           "--n", "2", "--k", "1")
        assert code == 0 and out.strip() == "3"

    def test_41_29_value(self, capsys):
        code, out, _ = run(capsys, "nu", "--p", "2", "--m", "1",
                           "--n", "41", "--k", "29")
        assert code == 0
        assert out.strip() == "537002017"
        assert int(out) == 2**29 + 2**17 + 2**5 + 1

    def test_finite_field_infinite_dim(self, capsys):
        code, out, _ = run(capsys, "nu", "--p", "2", "--infinite-dim",
                           "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"kind": "field-power-plus-point", "k": 2, "count": 5}

    def test_doubly_infinite(self, capsys):
        code, out, _ = run(capsys, "nu", "--infinite-field",
                           "--infinite-dim", "--k", "1")
        assert code == 0
        assert json.loads(out) == {"kind": "countably-infinite"}

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "nu", "--p", "2", "--infinite-field",
                           "--n", "3", "--k", "1")
        assert code == 1 and "error" in err


class TestCover:
    def test_verified_cover_2_7_5(self, capsys):
        code, out, _ = run(capsys, "cover", "--p", "2", "--n", "7",
                           "--k", "5", "--verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 43
        assert doc["verification"]["ok"] is True
        assert doc["verification"]["uncovered"] == []
        cover = cover_from_json(doc)  # extra keys are ignored on parse
        assert cover.count == 43

    def test_output_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "cover", "--p", "3", "--n", "4", "--k", "2")
        _, second, _ = run(capsys, "cover", "--p", "3", "--n", "4", "--k", "2")
        assert first == second

    def test_bad_codim(self, capsys):
        code, _, err = run(capsys, "cover", "--p", "2", "--n", "4", "--k", "4")
        assert code == 1 and "error" in err


# sha256 of stdout as printed, trailing newline included: one case per
# construction path (spread over a prime and an extension base, the d == n
# spread, mixed, peel plus tail, tail only)
PINNED_OUTPUT = [
    ("partition --p 2 --n 6 --d 2 --kind spread",
     "7a2ca0ba138e38bfe85ade06655bbee6354738ff6014ceea5e6b029a3f6d200b"),
    ("partition --p 2 --m 2 --n 3 --d 1 --kind spread",
     "2f28c5c3e3d3c5dd31b4305308c4fcfd406d1a880b960e27fec67b82674cf476"),
    ("partition --p 3 --m 2 --n 2 --d 1 --kind spread",
     "b25403d62636fd53fd68aa03786764c2d02ff04bb487129e6eecb025c2abb520"),
    ("partition --p 2 --m 2 --n 3 --d 3 --kind spread",
     "bd92229d7f6b96eb97c578a2c59dfe1e01912ac771df489d7b636507021a9ca4"),
    ("partition --p 5 --m 2 --n 3 --d 1 --kind mixed",
     "0611847158683a8efcaafae8fd0c3c7d632c2aca96af1be5f0aff1ec37e27f86"),
    ("cover --p 2 --n 9 --k 5",
     "5371f376d4ea75d185a6a7196be83f49e1a3ad69bd192d52224279e334f244d7"),
    ("cover --p 2 --m 2 --n 7 --k 4",
     "67d4b924d2367cd0881e246b26215f0b29a5a358d03d8f497506e1bd0ed2041e"),
    ("cover --p 3 --n 5 --k 2",
     "31f9fc93a31dd4608b7a30d67256a6be691e2e5d4feaca62640fe25eafd78d15"),
]


@pytest.mark.parametrize("command,digest", PINNED_OUTPUT,
                         ids=[c for c, _ in PINNED_OUTPUT])
def test_construction_output_is_pinned(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPartition:
    def test_spread_with_verify(self, capsys):
        code, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                           "--d", "2", "--kind", "spread", "--verify")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["parts"]) == 5
        assert doc["verification"]["ok"] is True
        assert partition_from_json(doc).kind == "spread"

    def test_mixed(self, capsys):
        code, out, _ = run(capsys, "partition", "--p", "3", "--n", "5",
                           "--d", "2", "--kind", "mixed")
        assert code == 0
        assert len(json.loads(out)["parts"]) == 28

    def test_spread_requires_divisor(self, capsys):
        code, _, err = run(capsys, "partition", "--p", "2", "--n", "5",
                           "--d", "2", "--kind", "spread")
        assert code == 1 and "error" in err


class TestVerifyCommand:
    def test_good_file(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        path = tmp_path / "cover.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", "--cover", str(path))
        assert code == 0
        assert json.loads(out2)["ok"] is True

    def test_broken_cover_exits_2_with_violations(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "3", "--n", "2", "--k", "1")
        doc = json.loads(out)
        doc["subspaces"] = doc["subspaces"][1:]
        doc["count"] -= 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", "--cover", str(path))
        assert code == 2
        report = json.loads(out2)
        assert report["ok"] is False
        assert len(report["uncovered"]) == 2  # q - 1 vectors of the lost line

    def test_partition_file(self, capsys, tmp_path):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                        "--d", "2", "--kind", "mixed")
        path = tmp_path / "part.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", "--partition", str(path))
        assert code == 0 and json.loads(out2)["ok"] is True

    def test_tampered_basis_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        doc["subspaces"][0]["basis"][0][0] = 1  # breaks RREF shape
        doc["subspaces"][0]["basis"][-1][0] = 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and "error" in err

    def test_part_repeated_300_times(self, capsys, tmp_path):
        # hit counts saturate in a byte: 301 hits must still read as doubled
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                        "--d", "2", "--kind", "spread")
        doc = json.loads(out)
        first = doc["parts"][0]
        doc["parts"] += [first] * 300
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", "--partition", str(path))
        assert code == 2
        report = json.loads(out2)
        assert report["uncovered"] == []
        part = partition_from_json(doc).parts[0]
        nonzero = sorted(list(v.entries) for v in enumerate_vectors(part)
                         if not v.is_zero())
        assert len(nonzero) == 3
        assert sorted(report["double_covered"]) == nonzero

    # with no members, only the shape checks stand between these documents
    # and a TypeError (or an empty, failing report)
    @pytest.mark.parametrize("key,value", [
        ("n", "3"), ("n", -1), ("n", 0), ("n", True), ("n", 2.0),
        ("codim", "1"), ("codim", False), ("codim", None),
    ])
    def test_bad_cover_shape_rejected(self, capsys, tmp_path, key, value):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        doc["subspaces"], doc["count"] = [], 0
        (doc["ambient"] if key == "n" else doc)[key] = value
        path = tmp_path / "bad_shape.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: ") and f"{key} must be" in err

    @pytest.mark.parametrize("key,value", [
        ("n", "4"), ("n", 0), ("d", 2.5), ("d", True),
    ])
    def test_bad_partition_shape_rejected(self, capsys, tmp_path, key, value):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                        "--d", "2", "--kind", "spread")
        doc = json.loads(out)
        doc["parts"] = []
        (doc["ambient"] if key == "n" else doc)[key] = value
        path = tmp_path / "bad_shape.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--partition", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: ") and f"{key} must be" in err

    def test_bool_extension_degree_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        for field in [doc["ambient"]["field"]] + [
                s["field"] for s in doc["subspaces"]]:
            field["m"] = True
        path = tmp_path / "bool_degree.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: ") and "extension degree" in err

    def test_bool_basis_entries_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        basis = doc["subspaces"][0]["basis"]
        doc["subspaces"][0]["basis"] = [[e == 1 for e in row] for row in basis]
        path = tmp_path / "bool_basis.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: ") and "integer encodings" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 1 and "error" in err

    def test_missing_key_error_is_short(self, capsys, tmp_path):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "8",
                        "--d", "1", "--kind", "spread")
        doc = json.loads(out)
        assert len(doc["parts"]) == 255
        del doc["kind"]
        path = tmp_path / "no_kind.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--partition", str(path))
        assert code == 1 and out2 == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(lines[0]) < 200 and "'kind'" in lines[0]

    def test_bool_subspace_n_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        doc["subspaces"][0]["n"] = True
        path = tmp_path / "bool_n.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: ") and "subspace n must be" in err

    def test_ambient_field_is_parsed_once(self, capsys, monkeypatch):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "8",
                        "--d", "1", "--kind", "spread")
        calls = []
        field_new = gf.field_new
        monkeypatch.setattr(gf, "field_new",
                            lambda p, m: calls.append((p, m)) or field_new(p, m))
        assert len(partition_from_json(json.loads(out)).parts) == 255
        assert calls == [(2, 1)]

    def test_part_with_another_field_is_a_mismatch(self, capsys, tmp_path):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "2",
                        "--d", "1", "--kind", "spread")
        doc = json.loads(out)
        doc["parts"][0]["field"] = {"p": 3, "m": 1, "modulus": [0, 1]}
        path = tmp_path / "other_field.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--partition", str(path))
        assert code == 1
        assert err == "error: partition part has mismatched ambient space\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda prov: prov.update(kind="bogus"), "provenance kind"),
        (lambda prov: prov["steps"][0].update(kind="bogus"), "step kind"),
        (lambda prov: prov["steps"][0].update(ambient_dim=[]), "ambient_dim"),
        (lambda prov: prov["steps"][0].pop("count"), "'count'"),
    ])
    def test_bad_provenance_rejected(self, capsys, tmp_path, edit, message):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        edit(doc["provenance"])
        path = tmp_path / "bad_provenance.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: ") and message in err


    @pytest.mark.parametrize("provenance", [
        lambda prov: prov["steps"][0].update(count=99),
        lambda prov: prov.update(kind="peeling", steps=[]),
    ], ids=["step-count-99", "no-steps"])
    def test_provenance_count_mismatch_fails(self, capsys, tmp_path,
                                             provenance):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "4", "--k", "2")
        doc = json.loads(out)
        provenance(doc["provenance"])
        path = tmp_path / "miscounted.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", "--cover", str(path))
        assert code == 2
        report = json.loads(out2)
        assert report["ok"] is False and report["uncovered"] == []


class TestSizeGuards:
    """Inputs whose size is far over the bound exit 1 at once: the bound is
    checked before a power or a primality test is computed."""

    HUGE = 10**12

    def verify_edited_cover(self, capsys, tmp_path, edit):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        edit(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "verify", "--cover", str(path))

    def assert_rejected(self, result):
        code, out, err = result
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "over the configured bound" in err

    def test_huge_prime_in_a_field_document(self, capsys, tmp_path):
        def edit(doc):
            doc["ambient"]["field"]["p"] = 2**61 - 1  # a Mersenne prime
        self.assert_rejected(self.verify_edited_cover(capsys, tmp_path, edit))

    def test_huge_ambient_dimension_in_a_cover_document(self, capsys,
                                                         tmp_path):
        def edit(doc):
            doc["ambient"]["n"] = self.HUGE
            doc["subspaces"], doc["count"] = [], 0
        self.assert_rejected(self.verify_edited_cover(capsys, tmp_path, edit))

    def test_huge_extension_degree(self, capsys):
        self.assert_rejected(run(capsys, "nu", "--p", "2", "--m",
                                 str(self.HUGE), "--n", "3", "--k", "1"))

    def test_huge_search_space(self, capsys):
        self.assert_rejected(run(capsys, "oracle", "min", "--p", "2", "--n",
                                 str(self.HUGE), "--k", "1"))

    def test_huge_cover(self, capsys):
        self.assert_rejected(run(capsys, "cover", "--p", "2", "--n",
                                 str(self.HUGE), "--k", "1"))


F2 = gf.field_new(2, 1)
FUZZ_DOCUMENTS = [
    ("cover", cover_to_json(cover_finite(F2, 3, 1))),
    ("cover", cover_to_json(cover_finite(gf.field_new(3, 1), 2, 1))),
    ("partition", partition_to_json(mixed_partition(F2, 4, 2))),
    ("partition", partition_to_json(spread_partition(gf.field_new(2, 2), 2, 1))),
]

JSON_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([2**61 - 1, 10**12, -(10**12), 2**100]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def value_paths(doc, path=()):
    """The key path of every value nested in a JSON document: each leaf
    and each list or object below the top."""
    if path:
        yield path
    if isinstance(doc, (dict, list)):
        keys = doc if isinstance(doc, dict) else range(len(doc))
        for key in keys:
            yield from value_paths(doc[key], path + (key,))


# the deadline fails an input that is slow to reject, such as a size guard
# that computes a huge power before it compares
@settings(max_examples=500, deadline=2000)
@given(st.data())
def test_verify_survives_any_value_replaced(data):
    kind, doc = data.draw(st.sampled_from(FUZZ_DOCUMENTS))
    doc = copy.deepcopy(doc)
    *parents, last = data.draw(st.sampled_from(list(value_paths(doc))))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", f"--{kind}", path])
    assert code in (0, 1, 2)


class TestOracleCommand:
    def test_min(self, capsys):
        code, out, _ = run(capsys, "oracle", "min", "--p", "3", "--n", "2",
                           "--k", "1")
        assert code == 0 and out.strip() == "4"

    def test_min_with_hint(self, capsys):
        code, out, _ = run(capsys, "oracle", "min", "--p", "2", "--n", "4",
                           "--k", "2", "--upper-hint", "7")
        assert code == 0 and out.strip() == "5"

    def test_threads_flag_rejected(self, capsys):
        code, _, err = run(capsys, "oracle", "min", "--p", "2", "--n", "4",
                           "--k", "2", "--threads", "4")
        assert code == 1 and "error" in err


class TestAssignCommand:
    def test_documented_output_shape(self, capsys):
        code, out, _ = run(capsys, "assign", "--k", "2",
                           "--vector", "0,5,7,1,2")
        assert code == 0
        assert json.loads(out) == {"i": 1, "tail": ["7/5"]}

    def test_explicit_positions(self, capsys):
        code, out, _ = run(capsys, "assign", "--k", "1",
                           "--vector", "9,2,3,9", "--positions", "1,2")
        assert code == 0
        assert json.loads(out) == {"i": 0, "tail": ["3/2"]}

    def test_bad_vector(self, capsys):
        code, _, err = run(capsys, "assign", "--k", "1", "--vector", "1,x")
        assert code == 1 and "error" in err


class TestCountableCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "countable", "--support",
                           '{"1":"2","7":"1/3","9":"5"}')
        assert code == 0 and out.strip() == "10"

    def test_zero_vector(self, capsys):
        code, out, _ = run(capsys, "countable", "--support", "{}")
        assert code == 0 and out.strip() == "0"

    def test_zero_scalar_rejected(self, capsys):
        code, _, err = run(capsys, "countable", "--support", '{"3":"0"}')
        assert code == 1 and "error" in err


class TestLimitCommand:
    def test_41_29(self, capsys):
        code, out, _ = run(capsys, "limit", "--n", "41", "--k", "29")
        assert code == 0
        assert json.loads(out) == {"cover_number": 4, "value_at_q1": "41/12"}


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_nonprime_p(self, capsys):
        code, _, err = run(capsys, "nu", "--p", "6", "--n", "2", "--k", "1")
        assert code == 1 and "prime" in err


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subcover", "nu", "--p", "2", "--n", "2",
         "--k", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
