"""CLI surface: outputs, JSON round trips, exit codes, determinism."""

import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcover import cli, covers, gf, linalg, oracle
from subcover.covers import (
    Cover,
    PlanStep,
    Provenance,
    cover_finite,
    cover_from_json,
    cover_head_to_json,
    cover_to_json,
)
from subcover.linalg import span_tuples
from subcover.partitions import (
    Partition,
    mixed_partition,
    partition_from_json,
    partition_head_to_json,
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

    def test_counts_past_the_int_digit_limit(self, capsys):
        # 2^20000 +- 1 have 6021 digits; str of an int stops at 4300 by
        # default (Python >= 3.10.7), and the limit must stay as it was
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code, out, err = run(capsys, "nu", "--p", "2", "--n", "20000",
                             "--k", "19999")
        assert code == 0 and err == ""
        assert len(out.strip()) == 6021 and Decimal(out) == 2**20000 - 1
        code, out, err = run(capsys, "nu", "--p", "2", "--infinite-dim",
                             "--k", "20000")
        assert code == 0 and err == ""
        assert json.loads(out, parse_int=Decimal) == {
            "count": 2**20000 + 1, "k": 20000,
            "kind": "field-power-plus-point"}
        assert limit() == before

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

    def test_infinite_field_takes_no_label(self, capsys):
        code, out, err = run(capsys, "nu", "--infinite-field", "R",
                             "--infinite-dim", "--k", "1")
        assert code == 1 and out == "" and "error" in err

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "nu", "--p", "2", "--infinite-field",
                           "--n", "3", "--k", "1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("argv,message", [
        (["--n", "3", "--infinite-dim"],
         "give either --n or --infinite-dim, not both"),
        ([], "--n or --infinite-dim is required"),
        (["--n", "0"], "finite dimension must be >= 1"),
    ], ids=["both", "neither", "zero"])
    def test_dimension_flags(self, capsys, argv, message):
        code, out, err = run(capsys, "nu", "--p", "2", *argv, "--k", "1")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--m", "5", "--n", "4"], ["--m", "0", "--infinite-dim"],
    ], ids=["finite-dim", "infinite-dim"])
    def test_extension_degree_with_an_infinite_field(self, capsys, argv):
        code, out, err = run(capsys, "nu", "--infinite-field", *argv,
                             "--k", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: give either --p/--m or --infinite-field")


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

    def test_verified_lines_over_gf257(self, capsys):
        # q > 256: verification walks list columns, not byte tables
        code, out, _ = run(capsys, "cover", "--p", "257", "--n", "2",
                           "--k", "1", "--verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 258
        assert doc["verification"] == {"ok": True, "uncovered": [],
                                       "double_covered": [], "checked": 66048}


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
    # one-dimensional parts whose generator leads with an entry other than 1
    ("partition --p 3 --n 4 --d 1 --kind spread",
     "249ac068c4577d5319fe8c1add515c11b3a954c3832f540b7f9b5263eb80273e"),
    ("partition --p 3 --n 4 --d 1 --kind mixed",
     "e0705efcb51f6a9952d396608083d45278b895286206eb3ece899a423045a122"),
    ("cover --p 3 --n 3 --k 2",
     "3a6cc41a6f747ddf23c52f7d4da0ea434a8349cb881b8935026986ad6ddb3aa2"),
    ("partition --p 257 --n 2 --d 1 --kind spread",
     "fdd9a34eeae84ac46cb8a9add70580be93820fe196a99335d2d5060610141432"),
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


# d = 1 families shuffled by a seed, with one member replaced by a copy of
# another: sha256 of the verify report as printed, trailing newline
# included; the uncovered and double-covered lists run in index order
BROKEN_ONE_ROW_FAMILIES = [
    ("partition --p 2 --n 10 --d 1 --kind spread",
     "0b4fcc2b8b740e6dacaad2ccc8fa8e1e3d217abfd48e0e4944d863aef2321279"),
    ("partition --p 3 --n 5 --d 1 --kind spread",
     "e968b6390ed285dc5039edf46f35fdefc135e1874b5360657f557767ec66624a"),
    ("partition --p 2 --m 2 --n 4 --d 1 --kind spread",
     "7a2907de3dbbc2ef037f8b8565872acc74877855deaa24378408560d83aca015"),
    ("partition --p 257 --n 2 --d 1 --kind spread",
     "b093ee2b3d729445a8d9b83bb75f7797ebf26fea80f0087c65324b6acbbba729"),
    ("cover --p 2 --n 8 --k 7",
     "04afc2b63c4be09e827df9cc80d1593b1aab68a707975099145c4dbffe95f9ce"),
    ("cover --p 3 --n 4 --k 3",
     "9aae56b5259754b9acb9e36d070f8e5c73e90c6af6dce61480f3ad6d2670a7a0"),
    ("cover --p 2 --m 2 --n 3 --k 2",
     "1fc58f80a21b841e3dea67b028bb89f3c293d75139f451f09239a05953254078"),
    # GF(2^8), the largest field with byte tables
    ("partition --p 2 --m 8 --n 2 --d 1 --kind spread",
     "7c1a0503e5380e0ab69fc9b318854f96aa7c03b4e282d65d93f1e38ea32bd122"),
]


def broken_family_report(capsys, tmp_path, seed, command):
    """The verify report of the seeded broken copy of ``command``'s
    family: the document, its member key, the report and stdout."""
    _, out, _ = run(capsys, *command.split())
    doc = json.loads(out)
    key = "parts" if "parts" in doc else "subspaces"
    rng = random.Random(seed)
    rng.shuffle(doc[key])
    i, j = rng.sample(range(len(doc[key])), 2)
    doc[key][j] = copy.deepcopy(doc[key][i])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    flag = "--partition" if key == "parts" else "--cover"
    code, out, _ = run(capsys, "verify", flag, str(path))
    assert code == 2
    return doc, key, json.loads(out), out


@pytest.mark.parametrize("seed,command,digest", [
    (seed, *case) for seed, case in enumerate(BROKEN_ONE_ROW_FAMILIES, 1)
], ids=[c for c, _ in BROKEN_ONE_ROW_FAMILIES])
def test_broken_one_row_family_report_is_pinned(capsys, tmp_path, seed,
                                                command, digest):
    doc, key, report, out = broken_family_report(capsys, tmp_path, seed,
                                                 command)
    q = doc["ambient"]["field"]["p"] ** doc["ambient"]["field"]["m"]
    assert len(report["uncovered"]) == q - 1
    assert len(report["double_covered"]) == (q - 1 if key == "parts" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_broken_two_row_family_report_is_pinned(capsys, tmp_path):
    # a d = 2 spread over GF(16): its members' spans are whole-vector blocks
    doc, _, report, out = broken_family_report(
        capsys, tmp_path, 1, "partition --p 2 --m 4 --n 4 --d 2 --kind spread")
    assert len(report["uncovered"]) == len(report["double_covered"]) == 255
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9b047d26fca3b5e0a3327a6280b693e57d69c9f97c0bbb8db172b1ad2f4bb523")


def compact(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def encoded(capsys, monkeypatch, *argv):
    """Run a command; the documents it passed to ``cli._encode``, each with
    the text written for it, and stdout."""
    calls, encode = [], cli._encode

    def recorded(doc):
        calls.append((doc, encode(doc)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "_encode", recorded)
    code, out, _ = run(capsys, *argv)
    assert code in (0, 2)
    return calls, out


class Writes(io.StringIO):
    """A stdout that keeps the length of each text written to it."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def written(built, report=None):
    """What ``cli._print_built`` writes for the cover or partition
    ``built`` and the report, its exit code and its write sizes."""
    if isinstance(built, Partition):
        doc, key = partition_head_to_json(built), "parts"
    else:
        doc, key = cover_head_to_json(built), "subspaces"
    with contextlib.redirect_stdout(Writes()) as out:
        code = cli._print_built(built, doc, key, report)
    return out.getvalue(), code, out.sizes


def expected(built, report=None) -> str:
    """``built``'s document, with the report, as json.dumps writes it."""
    doc = (partition_to_json(built) if isinstance(built, Partition)
           else cover_to_json(built))
    if report is not None:
        doc |= {"verification": report.to_json()}
    return compact(doc) + "\n"


# FAMILY_CHUNK values the writer is run with, the default first
CHUNKS = (cli.FAMILY_CHUNK, 1, 2, 3, 5)


def chunked(monkeypatch, built, report=None):
    """``written(built, report)`` at every chunk size of CHUNKS; each must
    write the family in one text per chunk, between the text before it
    and the text after it."""
    family = getattr(built, "parts", getattr(built, "subspaces", None))
    outs = set()
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "FAMILY_CHUNK", chunk)
        out, code, sizes = written(built, report)
        assert len(sizes) == 2 + -(-len(family) // chunk)
        outs.add((out, code))
    [result] = outs
    return result


class TestDump:
    """``cover`` and ``partition`` write their object's document, with its
    report, as ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
    through ``cli._print_built``, the family chunk by chunk; every other
    document is printed as ``cli._encode(doc)``."""

    # every construction path (spread, mixed, peel plus tail), multi-row
    # parts, --verify reports, and GF(2), GF(3), GF(4), GF(9), GF(2^8),
    # GF(257)
    @pytest.mark.parametrize("command", [
        "partition --p 2 --n 6 --d 2 --kind spread --verify",
        "partition --p 3 --n 4 --d 1 --kind spread",
        "partition --p 2 --m 2 --n 3 --d 1 --kind spread --verify",
        "partition --p 3 --m 2 --n 2 --d 1 --kind spread",
        "partition --p 2 --m 8 --n 2 --d 1 --kind spread",
        "partition --p 257 --n 2 --d 1 --kind spread",
        "partition --p 2 --m 2 --n 3 --d 3 --kind spread",
        "partition --p 2 --n 7 --d 3 --kind mixed --verify",
        "partition --p 3 --m 2 --n 3 --d 1 --kind mixed",
        "cover --p 2 --n 9 --k 5 --verify",
        "cover --p 3 --n 5 --k 2",
        "cover --p 2 --m 2 --n 4 --k 3 --verify",
        "cover --p 3 --n 3 --k 2",
    ])
    def test_construction_documents(self, capsys, monkeypatch, command):
        args = cli.build_parser().parse_args(command.split())
        f = gf.field_new(args.p, args.m or 1)
        if args.command == "cover":
            built, verify = cover_finite(f, args.n, args.k), oracle.verify_cover
        else:
            build = spread_partition if args.kind == "spread" else (
                mixed_partition)
            built, verify = build(f, args.n, args.d), oracle.verify_partition
        report = verify(built) if args.verify else None
        want = expected(built, report)
        assert chunked(monkeypatch, built, report) == (want, 0)
        for chunk in CHUNKS:
            monkeypatch.setattr(cli, "FAMILY_CHUNK", chunk)
            assert run(capsys, *command.split())[:2] == (0, want)
        assert ('"verification":' in want) == command.endswith("--verify")

    def test_entries_of_four_digits(self, monkeypatch):
        # a family over GF(1021) of one to three rows
        f, rng = gf.field_new(1021, 1), random.Random(7)
        family = [linalg.subspace_from_generators(
            f, 4, [[rng.randrange(1021) for _ in range(4)]
                   for _ in range(1 + i % 3)]) for i in range(12)]
        part = Partition(f, 4, 1, "mixed", tuple(family), False)
        assert {s.dim for s in family} == {1, 2, 3}
        assert max(e for s in family for r in s.basis for e in r) > 999
        assert chunked(monkeypatch, part) == (expected(part), 0)

    @pytest.mark.parametrize("seed,command", [
        (1, "partition --p 2 --n 10 --d 1 --kind spread"),
        (3, "partition --p 2 --m 2 --n 4 --d 1 --kind spread"),
        (5, "cover --p 2 --n 8 --k 7"),
    ])
    def test_broken_family_reports(self, capsys, monkeypatch, tmp_path, seed,
                                   command):
        doc, key, report, out = broken_family_report(capsys, tmp_path, seed,
                                                     command)
        assert report["uncovered"]
        assert out == compact(report) + "\n"
        # the broken family, read back, written with its report
        if key == "parts":
            built = partition_from_json(doc)
            verified = oracle.verify_partition(built)
        else:
            built = cover_from_json(doc)
            verified = oracle.verify_cover(built)
        assert verified.to_json() == report
        assert chunked(monkeypatch, built, verified) == (
            expected(built, verified), 2)

    def test_verified_broken_family(self, monkeypatch):
        # a cover with a member dropped and a partition with a member
        # doubled: non-empty violation lists next to a family
        cover = cover_finite(gf.field_new(3, 1), 3, 1)
        broken = replace(cover, subspaces=cover.subspaces[1:])
        report = oracle.verify_cover(broken)
        assert report.uncovered
        part = spread_partition(gf.field_new(2, 2), 3, 1)
        doubled = replace(part, parts=part.parts[1:] + part.parts[2:3])
        preport = oracle.verify_partition(doubled)
        assert preport.double_covered
        for built, rep in (broken, report), (doubled, preport):
            doc = (cover_to_json if built is broken else partition_to_json)(
                built) | {"verification": rep.to_json()}
            assert chunked(monkeypatch, built, rep) == (compact(doc) + "\n",
                                                       2)

    def test_empty_and_zero_dimensional_members(self, monkeypatch):
        part = spread_partition(gf.field_new(2, 1), 4, 2)
        empty = replace(part, parts=())
        report = oracle.verify_partition(empty)
        out, code = chunked(monkeypatch, empty, report)
        assert (out, code) == (expected(empty, report), 2)
        assert '"parts":[]' in out
        # a part with no rows, alone or at any place in a family, in a
        # chunk of its own or with others, is refused
        zero = linalg.zero_subspace(part.field, 4)
        for at in range(len(part.parts) + 1):
            with_zero = replace(part, parts=part.parts[:at] + (zero,)
                                + part.parts[at:])
            for chunk in CHUNKS:
                monkeypatch.setattr(cli, "FAMILY_CHUNK", chunk)
                with pytest.raises(AssertionError, match="no rows"):
                    written(with_zero)
        with pytest.raises(AssertionError, match="no rows"):
            written(replace(part, parts=(zero,)))

    @pytest.mark.parametrize("argv", [
        "nu --p 2 --infinite-dim --k 2",
        "nu --infinite-field --infinite-dim --k 1",
        "nu --infinite-field --n 3 --k 1",
        "limit --n 41 --k 29",
        "assign --k 2 --vector 0,5,7,1,2",
    ])
    def test_symbolic_documents(self, capsys, monkeypatch, argv):
        calls, out = encoded(capsys, monkeypatch, *argv.split())
        [(doc, text)] = calls
        assert text == compact(doc)
        assert out == compact(json.loads(out)) + "\n"

    def test_lists_that_are_not_families(self):
        # part lists that no Cover or Partition gives: mixed ambient sizes,
        # bool and float sizes, unequal or extra keys, bare rows, tuples,
        # flat bases and strings that look like the family's separators;
        # they are printed by ``cli._encode``, keys sorted down to the rows
        fd = gf.field_to_json(gf.field_new(2, 1))

        def part(basis, n=2, field=fd, **extra):
            return {"basis": basis, "field": field, "n": n, **extra}

        cases = [
            [part([[1, 0]]), part([[0, 1]], n=3)],
            [part([[1, 0]]), part([[0, 1]], n=True)],
            [part([[1, 0]], n=2.0)],
            [part([[1, 0]]), part([[0, 1]], field=dict(fd))],
            [part([[1, 0]]), part([[0, 1]], kind="x")],
            [part([[1, 0]]), {"basis": [[0, 1]], "field": fd, "m": 2}],
            [part([[1, 0]]), [[0, 1]]],
            [part([[1, 0]]), part([(0, 1)])],
            [part([[1, 0]]), part((([0, 1]),))],
            [part([[1, 0]]), part([1, 0])],
            [part([[1, 0]]), part([[["]],[[", 1]], [[0, 1]]])],
            [part([["]],[[", "]],[["]]), part([[0, 1]])],
            [part([[1, {"b": [[1]], "a": [[2]]}]]), part([[0, 1]])],
        ]
        for docs in cases:
            doc = {"parts": docs, "n": 2}
            assert cli._encode(doc) == compact(doc)
        assert '{"a":[[2]],"b":[[1]]}' in cli._encode(cases[-1])


# the fields of the random families: GF(2), GF(3), GF(4) with byte sums,
# and GF(257), GF(1021) with entries of three and four digits
FAMILY_FIELDS = [gf.field_new(p, m) for p, m in
                 ((2, 1), (3, 1), (2, 2), (257, 1), (1021, 1))]


@st.composite
def families(draw):
    """A partition or a cover of 0 to 6 random parts of 1 to 3 rows, with
    or without a report of a few random vectors."""
    f = draw(st.sampled_from(FAMILY_FIELDS))
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, f.q - 1)] * n)
    parts = [linalg.subspace_from_generators(f, n, gens) for gens in draw(
        st.lists(st.lists(row, min_size=1, max_size=3), max_size=6))]
    parts = tuple(s for s in parts if s.dim)
    if draw(st.booleans()):
        built = Partition(f, n, 1, draw(st.sampled_from(["spread", "mixed"])),
                          parts, draw(st.booleans()))
    else:
        dim = parts[0].dim if parts else 1
        built = Cover(f, n, n - dim, tuple(s for s in parts if s.dim == dim),
                      Provenance("spread", (PlanStep("spread", n, dim, 1),)))
    report = draw(st.none() | st.builds(
        oracle.VerificationReport, st.booleans(), st.lists(row, max_size=2),
        st.lists(row, max_size=2), st.integers(0, f.q**n)))
    return built, report


@settings(max_examples=300, deadline=None)
@given(families(), st.sampled_from(CHUNKS))
def test_dump_of_any_family_is_json_dumps(family, chunk):
    built, report = family
    with mock.patch.object(cli, "FAMILY_CHUNK", chunk):
        out, code, _ = written(built, report)
    assert out == expected(built, report)
    assert code == (2 if report is not None and not report.ok else 0)


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

    def test_gf257_cover_without_a_line_exits_2(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "257", "--n", "2", "--k", "1")
        doc = json.loads(out)
        lost = doc["subspaces"].pop(100)["basis"][0]
        doc["count"] -= 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", "--cover", str(path))
        assert code == 2
        report = json.loads(out2)
        assert report["ok"] is False and report["checked"] == 66048
        # the q - 1 nonzero multiples of the lost line
        f = gf.field_new(257, 1)
        assert sorted(report["uncovered"]) == sorted(
            [f.mul(c, x) for x in lost] for c in range(1, 257))

    @pytest.mark.parametrize("flag", ["--cover", "--partition"])
    def test_deeply_nested_json_rejected(self, capsys, tmp_path, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "verify", flag, str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed JSON") and "Traceback" not in err

    def test_partition_file(self, capsys, tmp_path):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                        "--d", "2", "--kind", "mixed")
        path = tmp_path / "part.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", "--partition", str(path))
        assert code == 0 and json.loads(out2)["ok"] is True

    # a valid spread relabelled: every vector still lies in exactly one
    # part, but the part dimensions or literature_range are not the kind's
    @pytest.mark.parametrize("n,edit", [
        (6, {"kind": "mixed"}),  # 21 planes, not a 4-space and 16 planes
        (4, {"d": 1}),  # 5 planes, not 15 lines
        (4, {"literature_range": False}),
        (4, {"kind": "mixed", "d": 1, "literature_range": False}),
    ], ids=["kind", "d", "literature_range", "all"])
    def test_relabelled_partition_exits_2(self, capsys, tmp_path, n, edit):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", str(n),
                        "--d", "2", "--kind", "spread")
        doc = json.loads(out)
        doc.update(edit)
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", "--partition", str(path))
        assert code == 2
        assert json.loads(out2) == {"ok": False, "uncovered": [],
                                    "double_covered": [], "checked": 2**n - 1}

    @pytest.mark.parametrize("value", ["no", 0, 1, None, []])
    def test_non_boolean_literature_range_rejected(self, capsys, tmp_path,
                                                   value):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                        "--d", "2", "--kind", "spread")
        doc = json.loads(out)
        doc["literature_range"] = value
        path = tmp_path / "literature.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--partition", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: literature_range must be a boolean")

    def test_tampered_basis_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "3", "--k", "1")
        doc = json.loads(out)
        doc["subspaces"][0]["basis"][0][0] = 1  # breaks RREF shape
        doc["subspaces"][0]["basis"][-1][0] = 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and "error" in err

    def test_uncleared_pivot_column_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "4", "--k", "2")
        doc = json.loads(out)
        doc["subspaces"][1]["basis"] = [[1, 1, 0, 0], [0, 1, 0, 0]]
        path = tmp_path / "uncleared.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err == "error: pivot column not cleared\n"

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
        nonzero = sorted(list(v) for v in span_tuples(part.field, part.basis,
                                                      part.n) if any(v))
        assert len(nonzero) == 3
        assert sorted(report["double_covered"]) == nonzero

    # with no members, only the shape checks stand between these documents
    # and a TypeError (or an empty, failing report)
    @pytest.mark.parametrize("key,value", [
        ("n", "3"), ("n", -1), ("n", 0), ("n", True), ("n", 2.0),
        ("codim", "1"), ("codim", False), ("codim", None), ("codim", -1),
        ("codim", 0),
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
        ("n", "4"), ("n", 0), ("d", 2.5), ("d", True), ("d", -1), ("d", 0),
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

    # every number a document carries is a plain int, also where a float
    # or a bool equals the expected value (3.0 == 3, True == 1)
    def test_float_count_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "2", "--k", "1")
        doc = json.loads(out)
        doc["count"] = 3.0
        path = tmp_path / "float_count.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err == "error: count must be an integer, got 3.0\n"

    @pytest.mark.parametrize("entry", [1.0, True])
    def test_modulus_entries_must_be_ints(self, capsys, tmp_path, entry):
        _, out, _ = run(capsys, "cover", "--p", "2", "--m", "2", "--n", "2",
                        "--k", "1")
        doc = json.loads(out)
        for field in [doc["ambient"]["field"]] + [
                s["field"] for s in doc["subspaces"]]:
            assert field["modulus"] == [1, 1, 1]
            field["modulus"] = [entry] * 3
        path = tmp_path / "modulus.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--cover", str(path))
        assert code == 1 and out2 == ""
        assert err.startswith("error: modulus ") and "Traceback" not in err

    def test_part_field_equal_but_not_int_rejected(self, capsys, tmp_path):
        _, out, _ = run(capsys, "partition", "--p", "2", "--n", "4",
                        "--d", "2", "--kind", "spread")
        doc = json.loads(out)
        for part in doc["parts"]:
            part["field"].update(p=2.0, m=True)
        path = tmp_path / "part_field.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", "--partition", str(path))
        assert code == 1 and out2 == ""
        assert err == "error: p must be prime, got 2.0\n"

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

    @pytest.mark.parametrize("flag", ["--cover", "--partition"])
    def test_empty_path_cannot_be_read(self, capsys, flag):
        code, out, err = run(capsys, "verify", flag, "")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read") and "Traceback" not in err

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

    @pytest.mark.parametrize("argv,read", [
        (("partition", "--p", "2", "--n", "8", "--d", "1", "--kind", "spread"),
         partition_from_json),
        (("cover", "--p", "2", "--n", "8", "--k", "7"), cover_from_json),
    ])
    def test_ambient_document_is_built_once(self, capsys, monkeypatch, argv,
                                            read):
        _, out, _ = run(capsys, *argv)
        calls = []
        field_to_json = linalg.field_to_json
        monkeypatch.setattr(linalg, "field_to_json",
                            lambda f: calls.append(f) or field_to_json(f))
        read(json.loads(out))
        assert len(calls) == 1

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

    def test_provenance_of_another_plan_fails(self, capsys, tmp_path):
        # the counts add up to the cover's 5 subspaces, but the plan of
        # (2, 4, 2) is one spread step at ambient dimension 4
        _, out, _ = run(capsys, "cover", "--p", "2", "--n", "4", "--k", "2")
        doc = json.loads(out)
        doc["provenance"] = {"kind": "peeling", "steps": [
            {"kind": "peel", "ambient_dim": 9, "block_dim": 9, "count": 5}]}
        path = tmp_path / "other_plan.json"
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

    @pytest.mark.parametrize("argv", [
        ["nu", "--p", "2", "--n", str(HUGE), "--k", "1"],
        ["nu", "--p", "2", "--infinite-dim", "--k", str(HUGE)],
        ["limit", "--n", str(HUGE), "--k", "1"],
    ], ids=["nu-finite-dim", "nu-infinite-dim", "limit"])
    def test_huge_symbolic_size(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "fixed symbolic bound" in err

    def test_symbolic_size_just_under_the_bound(self, capsys):
        # q^n of 2^20 bits is built; the count itself is 3
        code, out, _ = run(capsys, "nu", "--p", "2", "--n", str(2**20),
                           "--k", "1")
        assert code == 0 and out.strip() == "3"
        code, _, err = run(capsys, "nu", "--p", "2", "--n", str(2**20 + 1),
                           "--k", "1")
        assert code == 1 and "fixed symbolic bound" in err

    def test_huge_cover(self, capsys):
        self.assert_rejected(run(capsys, "cover", "--p", "2", "--n",
                                 str(self.HUGE), "--k", "1"))

    @pytest.mark.parametrize("guard", ["1", "0"])
    def test_guard_below_two_rejected(self, capsys, monkeypatch, guard):
        monkeypatch.setenv("SUBCOVER_MAX_Q_POW", guard)
        code, out, err = run(capsys, "cover", "--p", "2", "--n", "3",
                             "--k", "1")
        assert code == 1 and out == ""
        assert err == ("error: SUBCOVER_MAX_Q_POW must be at least 2, "
                       f"got {guard}\n")

    @pytest.mark.parametrize("guard", ["abc", "2.5"])
    def test_guard_not_an_integer_rejected(self, capsys, monkeypatch, guard):
        monkeypatch.setenv("SUBCOVER_MAX_Q_POW", guard)
        code, out, err = run(capsys, "cover", "--p", "2", "--n", "3",
                             "--k", "1")
        assert code == 1 and out == ""
        assert err == ("error: SUBCOVER_MAX_Q_POW must be an integer, "
                       f"got {guard!r}\n")

    @pytest.mark.parametrize("guard,n", [(2**62, 61), (2**70, 65)])
    def test_raised_guard_past_what_memory_holds(self, capsys, monkeypatch,
                                                 guard, n):
        # 2^61 bytes of hit counts fail to allocate at once, and 2^65 is
        # more than sys.maxsize
        monkeypatch.setenv("SUBCOVER_MAX_Q_POW", str(guard))
        code, out, err = run(capsys, "cover", "--p", "2", "--n", str(n),
                             "--k", "1", "--verify")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cannot allocate" in err


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
        main_survives(["verify", f"--{kind}", path])


def main_survives(argv: list[str]) -> int:
    """Run ``cli.main`` in-process and check what every call must keep: an
    exit code in {0, 1, 2}, no traceback, and nothing on stdout on exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert code != 1 or out.getvalue() == "", argv
    return code


# families of lines, then of larger parts: all read by one reader
LINE_DOCUMENTS = [
    (partition_from_json, partition_to_json(
        spread_partition(gf.field_new(3, 1), 4, 1))),
    (cover_from_json, cover_to_json(cover_finite(F2, 5, 4))),
    (partition_from_json, partition_to_json(
        spread_partition(gf.field_new(2, 2), 3, 1))),
    (partition_from_json, partition_to_json(spread_partition(F2, 4, 2))),
    (partition_from_json, partition_to_json(mixed_partition(F2, 5, 2))),
    (cover_from_json, cover_to_json(cover_finite(F2, 5, 3))),
]


def edited_documents():
    """Each line document with each value path in turn replaced by each of
    a fixed list of values, as (reader, document).  The document is edited
    in place, so each is read before the next is drawn."""
    for read, doc in LINE_DOCUMENTS:
        q = doc["ambient"]["field"]["p"] ** doc["ambient"]["field"]["m"]
        for *parents, last in value_paths(doc):
            target = doc
            for key in parents:
                target = target[key]
            kept = target[last]
            # 0 and q - 1 make zero rows and leads other than 1
            for value in (True, 1.0, -1, q, None, "", [1], {}, 0, q - 1):
                target[last] = value
                yield read, doc
            target[last] = kept


def read_outcome(read, doc):
    """The cover or partition ``read`` makes of ``doc``, or the message of
    the ValueError it raises."""
    try:
        return read(doc)
    except ValueError as exc:
        return str(exc)


def test_line_families_read_alike_with_and_without_the_bulk_path(
        monkeypatch):
    for _, doc in LINE_DOCUMENTS:
        family = doc.get("parts") or doc["subspaces"]
        f = gf.field_from_json(doc["ambient"]["field"])
        assert linalg._family_from_json(family, f)
    # each read notes whether the bulk reader decided it, by returning a
    # family or raising; a read it never reached, or where it returned
    # None, takes the per-part reader either way, so only the decided ones
    # are read again without it
    family_from_json = linalg._family_from_json
    decided = False

    def noted(*args):
        nonlocal decided
        try:
            family = family_from_json(*args)
        except ValueError:
            decided = True
            raise
        decided = decided or family is not None
        return family

    monkeypatch.setattr(linalg, "_family_from_json", noted)
    bulk = []
    for read, doc in edited_documents():
        decided = False
        bulk.append((read_outcome(read, doc), decided))
    monkeypatch.setattr(linalg, "_family_from_json", lambda *args: None)
    assert [read_outcome(read, doc)
            for (read, doc), (_, by_bulk) in zip(edited_documents(), bulk)
            if by_bulk] == [outcome for outcome, by_bulk in bulk if by_bulk]


def test_valid_documents_are_read_without_parsing_part_fields(
        monkeypatch):
    # a line spread, a d = 2 spread, a d = 1 mixed partition and a peeled
    # cover: the per-part reader, the only caller of field_from_json in
    # linalg, is never reached
    docs = [
        (partition_from_json, partition_to_json(spread_partition(F2, 4, 1))),
        (partition_from_json, partition_to_json(spread_partition(F2, 6, 2))),
        (partition_from_json, partition_to_json(
            mixed_partition(gf.field_new(3, 1), 3, 1))),
        (cover_from_json, cover_to_json(cover_finite(F2, 5, 3))),
    ]
    assert docs[-1][1]["provenance"]["kind"] == "peeling"
    want = [read(doc) for read, doc in docs]

    def refuse(doc):
        raise AssertionError("a part's field document was parsed")

    monkeypatch.setattr(linalg, "field_from_json", refuse)
    assert [read(doc) for read, doc in docs] == want


# Integer flag values, as (usual, rare) draws: small, or negative, zero,
# huge or not integers.  The small ones stay at most 3, so that with a
# raised SUBCOVER_MAX_Q_POW the largest space drawn is GF(27)^3.
SMALL = st.sampled_from(["1", "2", "3"])
NOT_SMALL = ["-1", "0", "x", "2.5", "", "1e3", "0x10"]
INTS = (SMALL, st.sampled_from(NOT_SMALL + [str(10**12)]))
FIELD_FLAGS = [("--p", INTS), ("--m", INTS)]
FLAG = None  # a flag that takes no value
FILE = object()  # a path from the verify_inputs fixture
COMMANDS = {
    ("nu",): FIELD_FLAGS + [("--n", INTS), ("--k", INTS),
                            ("--infinite-field", FLAG),
                            ("--infinite-dim", FLAG)],
    ("cover",): FIELD_FLAGS + [("--n", INTS), ("--k", INTS),
                               ("--verify", FLAG)],
    ("partition",): FIELD_FLAGS + [
        ("--n", INTS), ("--d", INTS), ("--verify", FLAG),
        ("--kind", st.sampled_from(["spread", "mixed", "other"]))],
    ("oracle", "min"): FIELD_FLAGS + [("--n", INTS), ("--k", INTS)],
    ("assign",): [
        ("--k", INTS),
        ("--vector", st.sampled_from(["0,5,7,1,2", "1,2", "0,0,0", "x",
                                      "1/0", "", "3/4,-2," * 3])),
        ("--positions", st.sampled_from(["0,1", "0,2,1", "1,1", "-1,2",
                                         "a", "", str(10**12) + ",0"]))],
    ("countable",): [("--support", st.sampled_from([
        '{"1":"2","7":"1/3"}', "{}", '{"1":"0"}', '{"-1":"1"}', '{"x":1}',
        '{"1":"1/0"}', '{"1":1e400}', "[1]", "[" * 20000 + "]" * 20000,
        '{"1":' + "7" * 5000 + "}", "{"]))],
    ("limit",): [("--n", INTS), ("--k", INTS)],
    ("verify",): [("--cover", FILE), ("--partition", FILE)],
}
ENV_BOUNDS = st.sampled_from([
    "abc", "2.5", "-5", "0", "1", "64", " 4096 ", str(10**30), "9" * 5000])


def usually(data) -> bool:
    """True in three draws of four, so that most commands get past argument
    checking: flags are given, values small and the bound unset."""
    return data.draw(st.booleans()) or data.draw(st.booleans())


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    """Files for ``verify``: each fuzz document, deep nesting, an integer
    over the 4300 digits Python parses, non-UTF-8 bytes, truncated JSON,
    a directory and a missing file."""
    tmp = tmp_path_factory.mktemp("inputs")
    contents = [json.dumps(doc) for _, doc in FUZZ_DOCUMENTS] + [
        "[" * 100_000 + "]" * 100_000,
        json.dumps({**FUZZ_DOCUMENTS[0][1], "codim": -7}).replace(
            "-7", "1" * 5000),
        b"\xff\xfe{\x80}",
        json.dumps(FUZZ_DOCUMENTS[2][1])[:200],
    ]
    paths = []
    for i, content in enumerate(contents):
        path = tmp / f"doc{i}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths.append(str(path))
    return paths + [str(tmp), str(tmp / "missing.json")]


@settings(max_examples=200, deadline=1000)
@given(st.data())
def test_every_command_survives_any_input(verify_inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag, values in COMMANDS[command]:
        if usually(data):
            argv.append(flag)
            if values is FILE:
                argv.append(data.draw(st.sampled_from(verify_inputs)))
            elif isinstance(values, tuple):
                argv.append(data.draw(values[not usually(data)]))
            elif values is not FLAG:
                argv.append(data.draw(values))
    bound = None if usually(data) else data.draw(ENV_BOUNDS)
    env = {} if bound is None else {"SUBCOVER_MAX_Q_POW": bound}
    with mock.patch.dict(os.environ, env):
        if bound is None:
            os.environ.pop("SUBCOVER_MAX_Q_POW", None)
        main_survives(argv)


class TestOracleCommand:
    def test_min(self, capsys):
        code, out, _ = run(capsys, "oracle", "min", "--p", "3", "--n", "2",
                           "--k", "1")
        assert code == 0 and out.strip() == "4"

    def test_upper_hint_flag_rejected(self, capsys):
        code, _, err = run(capsys, "oracle", "min", "--p", "2", "--n", "4",
                           "--k", "2", "--upper-hint", "7")
        assert code == 1 and "error" in err

    def test_min_with_one_subspace_per_point(self, capsys):
        # k = n-1: the cover is all 1023 points of GF(2)^10, one search
        # level per point, past Python's default recursion limit
        code, out, err = run(capsys, "oracle", "min", "--p", "2", "--n", "10",
                             "--k", "9")
        assert (code, out, err) == (0, "1023\n", "")

    @pytest.mark.parametrize("n,k", [(13, 1), (16, 15)])
    def test_point_masks_over_the_bound_rejected(self, capsys, n, k):
        # both pass the q^n and candidate-count guards; their point masks
        # would take hundreds of megabytes or gigabytes
        code, out, err = run(capsys, "oracle", "min", "--p", "2", "--n",
                             str(n), "--k", str(k))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "point-mask bits" in err

    def test_one_subspace_per_point_under_the_mask_bound(self, capsys):
        # 4095 candidates x 4095 points, just under 2^24 mask bits
        code, out, err = run(capsys, "oracle", "min", "--p", "2", "--n", "12",
                             "--k", "11")
        assert (code, out, err) == (0, "4095\n", "")

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

    @pytest.mark.parametrize("positions,message", [
        ("a,b", "bad positions 'a,b'"),
        ("0,1,2", "need 2 positions for k=1"),
    ])
    def test_bad_positions(self, capsys, positions, message):
        code, out, err = run(capsys, "assign", "--k", "1", "--vector",
                             "1,2,3", "--positions", positions)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("k", ["2", str(10**12)])
    def test_k_past_the_vector(self, capsys, k):
        code, out, err = run(capsys, "assign", "--k", k, "--vector", "1,2")
        assert code == 1 and out == ""
        assert err.startswith(f"error: k={k} needs")

    def test_witness_that_fails_to_validate(self, capsys, monkeypatch):
        # a witness whose coefficient is off by one does not account for
        # the vector's designated entries
        assign = covers.projective_assign

        def off_by_one(vector, positions):
            index, witness = assign(vector, positions)
            return index, replace(witness,
                                  coefficient=witness.coefficient + 1)

        monkeypatch.setattr(covers, "projective_assign", off_by_one)
        code, out, err = run(capsys, "assign", "--k", "1", "--vector",
                             "1,2,3")
        assert code == 2 and out == ""
        assert err == "membership witness failed to validate\n"


class TestCountableCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "countable", "--support",
                           '{"1":"2","7":"1/3","9":"5"}')
        assert code == 0 and out.strip() == "10"

    def test_zero_vector(self, capsys):
        code, out, _ = run(capsys, "countable", "--support", "{}")
        assert code == 0 and out.strip() == "0"

    def test_index_past_the_int_digit_limit(self, capsys):
        # the largest index int() reads has 4300 digits; one more is 10^4300
        code, out, err = run(capsys, "countable", "--support",
                             '{"%s":"1"}' % ("9" * 4300))
        assert code == 0 and err == ""
        assert out == "1" + "0" * 4300 + "\n"

    def test_zero_scalar_rejected(self, capsys):
        code, _, err = run(capsys, "countable", "--support", '{"3":"0"}')
        assert code == 1 and "error" in err

    def test_index_that_is_not_an_integer_rejected(self, capsys):
        code, out, err = run(capsys, "countable", "--support", '{"x":"1"}')
        assert code == 1 and out == ""
        assert err.startswith("error: bad support entry: ")

    def test_deeply_nested_support_rejected(self, capsys):
        code, out, err = run(capsys, "countable", "--support",
                             "[" * 20_000 + "]" * 20_000)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed support JSON")


class TestLimitCommand:
    def test_41_29(self, capsys):
        code, out, _ = run(capsys, "limit", "--n", "41", "--k", "29")
        assert code == 0
        assert json.loads(out) == {"cover_number": 4, "value_at_q1": "41/12"}


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    """A cover and a partition document that verify, a copy of each with
    one member removed, and malformed JSON, by "@" and name."""
    tmp = tmp_path_factory.mktemp("families")
    files = {}
    for name, argv, key in [
            ("cover", ["cover", "--p", "3", "--n", "3", "--k", "1"],
             "subspaces"),
            ("partition", ["partition", "--p", "2", "--n", "6", "--d", "2",
                           "--kind", "spread"], "parts")]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        doc = json.loads(out.getvalue())
        files[f"@{name}"] = tmp / f"{name}.json"
        files[f"@{name}"].write_text(json.dumps(doc))
        doc[key].pop()
        if "count" in doc:
            doc["count"] -= 1
        files[f"@{name}-broken"] = tmp / f"{name}-broken.json"
        files[f"@{name}-broken"].write_text(json.dumps(doc))
    files["@malformed"] = tmp / "malformed.json"
    files["@malformed"].write_text('{"parts": [')
    return files


# every command, the verify commands naming a file of ``family_files``
EVERY_COMMAND = [
    (["cover", "--p", "2", "--n", "4", "--k", "2", "--verify"], 0),
    (["partition", "--p", "2", "--n", "6", "--d", "3", "--kind", "spread",
      "--verify"], 0),
    (["partition", "--p", "2", "--n", "5", "--d", "2", "--kind", "mixed",
      "--verify"], 0),
    (["verify", "--cover", "@cover"], 0),
    (["verify", "--cover", "@cover-broken"], 2),
    (["verify", "--partition", "@partition"], 0),
    (["verify", "--partition", "@partition-broken"], 2),
    (["oracle", "min", "--p", "2", "--n", "4", "--k", "2"], 0),
    (["oracle", "min", "--p", "3", "--m", "2", "--n", "3", "--k", "1"], 0),
    (["nu", "--p", "2", "--n", "4", "--k", "1"], 0),
    (["limit", "--n", "4", "--k", "1"], 0),
    (["assign", "--k", "1", "--vector", "2,3/4"], 0),
    (["countable", "--support", '{"1":"2","7":"1/3"}'], 0),
    (["cover", "--p", "2", "--n", "4"], 1),
    (["verify", "--partition", "@malformed"], 1),
]


@pytest.mark.parametrize("argv,expected", EVERY_COMMAND,
                         ids=[" ".join(argv) for argv, _ in EVERY_COMMAND])
def test_no_command_leaves_cyclic_garbage(capsys, family_files, argv,
                                          expected):
    # each command runs with the collector paused, so whatever cycles it
    # left would wait for the next collection; there must be none
    argv = [str(family_files.get(a, a)) for a in argv]
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        code = cli.main(argv)
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, found) == (expected, 0)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv,expected", [
    (["nu", "--p", "2", "--n", "4", "--k", "1"], 0),
    (["cover", "--p", "2", "--n", "4"], 1),
    (["verify", "--cover", "@cover-broken"], 2),
], ids=["exit 0", "exit 1", "exit 2"])
def test_collector_state_is_restored(capsys, family_files, enabled, argv,
                                     expected):
    argv = [str(family_files.get(a, a)) for a in argv]
    (gc.enable if enabled else gc.disable)()
    try:
        code = cli.main(argv)
        after = gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, after) == (expected, enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_collector_is_paused_inside_a_command(monkeypatch, enabled):
    # ``limit`` calls covers.f1_limit_value first; here it notes the
    # collector's state and raises what no command catches
    inside = []

    def crash(n, k):
        inside.append(gc.isenabled())
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli.covers, "f1_limit_value", crash)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="unexpected"):
            cli.main(["limit", "--n", "4", "--k", "1"])
        after = gc.isenabled()
    finally:
        gc.enable()
    assert (inside, after) == ([False], enabled)


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_nonprime_p(self, capsys):
        code, _, err = run(capsys, "nu", "--p", "6", "--n", "2", "--k", "1")
        assert code == 1 and "prime" in err


def python_child(*args: str) -> subprocess.CompletedProcess:
    """A Python child process that imports the same package as this
    process, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_console_entry_point():
    proc = python_child("-m", "subcover", "nu", "--p", "2", "--n", "2",
                        "--k", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


# cover with and without --verify, so one call's flags cannot leak into the
# next, a usage error in between, then a search
ONE_PROCESS_ARGVS = [
    ["cover", "--p", "2", "--n", "4", "--k", "2", "--verify"],
    ["cover", "--p", "2", "--n", "4"],
    ["cover", "--p", "2", "--n", "4", "--k", "2"],
    ["oracle", "min", "--p", "2", "--n", "4", "--k", "2"],
]

ONE_PROCESS = """
import contextlib, io, json, sys
from subcover import cli
built_at_import = cli.build_parser.cache_info().currsize
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([built_at_import, cli.build_parser.cache_info().misses,
                  results]))
"""


def test_one_parser_serves_every_call_of_a_process():
    proc = python_child("-c", ONE_PROCESS, json.dumps(ONE_PROCESS_ARGVS))
    assert proc.returncode == 0, proc.stderr
    built_at_import, builds, results = json.loads(proc.stdout)
    assert built_at_import == 0 and builds == 1
    separate = [python_child("-m", "subcover", *argv)
                for argv in ONE_PROCESS_ARGVS]
    assert results == [[p.returncode, p.stdout, p.stderr] for p in separate]
    assert [code for code, _, _ in results] == [0, 1, 0, 0]
    assert results[1][2].startswith("error: ")
    assert "verification" in json.loads(results[0][1])
    assert "verification" not in json.loads(results[2][1])
