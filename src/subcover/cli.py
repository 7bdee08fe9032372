"""Command-line front end: constructions and verifications with JSON output.

Exit codes: 0 success, 1 validation error (bad arguments, malformed input),
2 verification failure.

Every JSON document on stdout is ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` and a newline.  ``cover`` and ``partition`` write
theirs from the constructed object (``_print_built``), with no per-part
documents: the other keys are encoded around an empty family, and the
family goes out ``FAMILY_CHUNK`` parts at a time, each chunk one
``json.dumps`` of its bases, split at the part boundary ``]],[[``, joined
around the shared ``,"field":...,"n":...`` text and written at once.  A
part with no rows would hide a boundary; no construction makes one, and
the writer refuses it.  Every other command prints ``_encode(doc)``.

``main`` runs each command with the cyclic garbage collector paused and
turns it back on afterwards only if it was on before.  A family of
thousands of parts is many small containers, each counting toward the
next collection, yet no command leaves a reference cycle (the parser
``build_parser`` keeps is never garbage), so every collection would find
nothing; reference counting still frees each value when it is dropped.
The tests require ``gc.collect()`` to find nothing after every command.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import operator
import sys
from decimal import Decimal
from fractions import Fraction

from . import covers, gf, oracle, partitions
from .covers import SpaceSpec


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # verification failures here, so route usage errors through exit code 1.
    def error(self, message):
        raise ValueError(message)


def _encode(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# The most parts of a family ``_print_built`` encodes in one ``json.dumps``.
FAMILY_CHUNK = 4096


def _int_text(n: int) -> str:
    """The decimal digits of n, however many: ``str`` of an int, which
    ``json.dumps`` calls too, stops at ``sys.get_int_max_str_digits()``
    digits, and ``Decimal`` has no such limit."""
    return str(Decimal(n))


def _field_from_args(args) -> gf.FieldDescriptor:
    if args.p is None:
        raise ValueError("--p is required for a finite field")
    return gf.field_new(args.p, 1 if args.m is None else args.m)


def _parse_rationals(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational vector {text!r}: {exc}") from exc


def _cmd_nu(args) -> int:
    if args.infinite_field and (args.p, args.m) != (None, None):
        raise ValueError("give either --p/--m or --infinite-field, not both")
    if args.infinite_dim and args.n is not None:
        raise ValueError("give either --n or --infinite-dim, not both")
    field = None if args.infinite_field else _field_from_args(args)
    dim = None if args.infinite_dim else args.n
    if dim is None and not args.infinite_dim:
        raise ValueError("--n or --infinite-dim is required")
    card = covers.nu(SpaceSpec(field, dim), args.k)
    if card.kind == covers.FINITE:
        print(_int_text(card.count))
        return 0
    doc = covers.cardinality_to_json(card)
    count = doc.pop("count", None)
    text = _encode(doc)
    if count is not None:  # "count" is the first key in sorted order
        text = f'{{"count":{_int_text(count)},{text[1:]}'
    print(text)
    return 0


def _print_built(built, doc: dict, key: str, report) -> int:
    """Print the document of the cover or partition ``built``, with its
    verification report when one was asked for, and return the exit code.
    ``doc`` holds every key but the family ``key``, which is written from
    ``built``'s parts chunk by chunk (see the module docstring)."""
    if report is not None:
        doc["verification"] = report.to_json()
    doc[key] = []
    before, after = _encode(doc).split(f'"{key}":[]')
    head = '{"basis":[['
    tail = (f']],"field":{_encode(gf.field_to_json(built.field))},'
            f'"n":{built.n}}}')
    write = sys.stdout.write
    write(f'{before}"{key}":[')
    parts = getattr(built, key)
    for start in range(0, len(parts), FAMILY_CHUNK):
        bases = tuple(map(operator.attrgetter("basis"),
                          parts[start:start + FAMILY_CHUNK]))
        pieces = _encode(bases)[3:-3].split("]],[[")
        # a part with no rows hides a boundary, or is alone in its chunk
        if len(pieces) != len(bases) or not bases[0]:
            raise AssertionError("a part with no rows cannot be written")
        write(("," if start else "") + head
              + (tail + "," + head).join(pieces) + tail)
    write(f"]{after}\n")
    return 0 if report is None or report.ok else 2


def _cmd_cover(args) -> int:
    cover = covers.cover_finite(_field_from_args(args), args.n, args.k)
    return _print_built(cover, covers.cover_head_to_json(cover), "subspaces",
                        oracle.verify_cover(cover) if args.verify else None)


def _cmd_partition(args) -> int:
    build = (partitions.spread_partition if args.kind == "spread"
             else partitions.mixed_partition)
    part = build(_field_from_args(args), args.n, args.d)
    return _print_built(part, partitions.partition_head_to_json(part), "parts",
                        oracle.verify_partition(part) if args.verify else None)


def _cmd_verify(args) -> int:
    if (args.cover is None) == (args.partition is None):
        raise ValueError("give exactly one of --cover or --partition")
    path = args.partition if args.cover is None else args.cover
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if args.cover is not None:
        report = oracle.verify_cover(covers.cover_from_json(doc))
    else:
        report = oracle.verify_partition(partitions.partition_from_json(doc))
    print(_encode(report.to_json()))
    return 0 if report.ok else 2


def _cmd_oracle(args) -> int:
    f = _field_from_args(args)
    print(oracle.min_cover_size(f, args.n, args.k))
    return 0


def _cmd_assign(args) -> int:
    vector = _parse_rationals(args.vector)
    if args.positions is not None:
        try:
            positions = tuple(int(p) for p in args.positions.split(","))
        except ValueError as exc:
            raise ValueError(f"bad positions {args.positions!r}") from exc
    elif args.k + 1 > len(vector):
        raise ValueError(f"k={args.k} needs {args.k + 1} coordinates, the "
                         f"vector has {len(vector)}")
    else:
        positions = tuple(range(args.k + 1))
    if len(positions) != args.k + 1:
        raise ValueError(f"need {args.k + 1} positions for k={args.k}")
    index, witness = covers.projective_assign(vector, positions)
    if not witness.validate(vector):
        print("membership witness failed to validate", file=sys.stderr)
        return 2
    print(_encode(covers.projective_index_to_json(index)))
    return 0


def _cmd_countable(args) -> int:
    try:
        raw = json.loads(args.support)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed support JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(
            "support must be a JSON object mapping index to scalar")
    try:
        support = {int(idx): Fraction(str(val)) for idx, val in raw.items()}
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad support entry: {exc}") from exc
    print(_int_text(covers.countable_cover_index(support)))
    return 0


def _cmd_limit(args) -> int:
    value = covers.f1_limit_value(args.n, args.k)
    doc = {
        "cover_number": covers.f1_cover_number(args.n, args.k),
        "value_at_q1": f"{value.numerator}/{value.denominator}",
    }
    print(_encode(doc))
    return 0


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, help="field characteristic (prime)")
    p.add_argument("--m", type=int, help="extension degree (default 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it as
    it was, and each ``parse_args`` call returns a fresh namespace."""
    parser = _Parser(prog="subcover",
                     description="Covers and partitions of finite vector "
                                 "spaces by subspaces of fixed codimension.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nu", help="minimal cover cardinality")
    _add_field_args(p)
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="codimension")
    p.add_argument("--infinite-field", action="store_true",
                   help="use an infinite field")
    p.add_argument("--infinite-dim", action="store_true",
                   help="infinite-dimensional ambient space")
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("cover", help="construct the minimal cover of F^n")
    _add_field_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="run the exhaustive oracle on the result")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("partition", help="construct a subspace partition")
    _add_field_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="part dimension")
    p.add_argument("--kind", choices=("spread", "mixed"), required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verify", help="verify a cover/partition JSON file")
    p.add_argument("--cover", metavar="FILE")
    p.add_argument("--partition", metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    po = osub.add_parser("min", help="exact minimum cover size by search")
    _add_field_args(po)
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--k", type=int, required=True)
    po.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("assign",
                       help="projective index containing a rational vector")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vector", required=True,
                   help="comma-separated rationals, e.g. 2,3/4,0")
    p.add_argument("--positions", default=None,
                   help="comma-separated designated indices "
                        "(default 0..k)")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("countable",
                       help="filtration index of a finite-support vector")
    p.add_argument("--support", required=True,
                   help='JSON object, e.g. {"1":"2","7":"1/3"}')
    p.set_defaults(func=_cmd_countable)

    p = sub.add_parser("limit", help="q -> 1 limit of the cover count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_limit)

    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
