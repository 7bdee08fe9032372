"""Workloads, seeded input documents and output checks for the benchmark.

Every command is a ``subcover`` CLI invocation.  A write command constructs
(or searches) and its stdout is checked against the benchmark's own closed
forms and against a sha256 digest pinned from a reference run.  A read
command runs ``verify`` on a document the benchmark generates from the seed:
a random GL(n, q) image of a constructed cover or partition, re-reduced to
RREF and shuffled, so its bases are dense where the constructions' are
sparse.  Documents are checked here, with arithmetic independent of the
package, before any timing starts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload.

    ``op`` is "cover", "partition" or "min".  ``k`` is the codimension for
    covers and searches and the part dimension d for partitions.  With
    ``read`` set, the command verifies a seeded document of that
    construction instead of building it.
    """

    op: str
    p: int
    m: int
    n: int
    k: int
    kind: str = ""
    verify: bool = False
    read: bool = False

    @property
    def q(self) -> int:
        return self.p**self.m

    @property
    def label(self) -> str:
        shape = " ".join(filter(None, (
            self.op, self.kind, f"({self.p},{self.m},{self.n},{self.k})")))
        if self.read:
            return "verify " + shape
        return shape + (" --verify" if self.verify else "")

    def argv(self, document: str | None = None) -> list[str]:
        if self.read:
            return ["verify", f"--{self.op}", document]
        field = ["--p", str(self.p), "--m", str(self.m), "--n", str(self.n)]
        if self.op == "cover":
            return ["cover", *field, "--k", str(self.k)] + (
                ["--verify"] if self.verify else [])
        if self.op == "partition":
            return ["partition", *field, "--d", str(self.k), "--kind", self.kind]
        return ["oracle", "min", *field, "--k", str(self.k)]


def _cover(p, m, n, k, **kw):
    return Command("cover", p, m, n, k, **kw)


def _spread(p, m, n, d, **kw):
    return Command("partition", p, m, n, d, kind="spread", **kw)


def _mixed(p, m, n, d, **kw):
    return Command("partition", p, m, n, d, kind="mixed", **kw)


def _min(p, m, n, k):
    return Command("min", p, m, n, k)


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "certify-dense": (
        _cover(2, 1, 16, 8, verify=True),
        _cover(3, 1, 10, 5, verify=True),
        _cover(2, 2, 8, 5, verify=True),
        _cover(3, 2, 5, 2, verify=True),
        _cover(2, 1, 14, 9, verify=True),
        _cover(2, 2, 8, 5, read=True),
        _cover(3, 2, 5, 2, read=True),
    ),
    "build-sparse": (
        _spread(2, 1, 14, 1),
        _spread(2, 2, 7, 1),
        _spread(3, 1, 9, 1),
        _spread(11, 1, 4, 2),
        _spread(2, 8, 2, 1),
        _mixed(2, 1, 14, 3),
        _mixed(5, 2, 3, 1),
        _cover(2, 1, 14, 13),
        _spread(2, 1, 14, 1, read=True),
        _mixed(2, 1, 14, 3, read=True),
        _cover(2, 1, 14, 13, read=True),
    ),
    "oracle-search": (
        _min(2, 1, 7, 3),
        _min(2, 1, 7, 4),
        _min(2, 1, 8, 6),
        _min(7, 1, 4, 2),
        _min(3, 1, 6, 4),
        _min(3, 2, 3, 1),
        _min(2, 2, 4, 2),
    ),
}

# sha256 of each write command's stdout, pinned from a reference run; the
# CLI promises byte-identical output for identical inputs.
PINNED_SHA256 = {
    "cover (2,1,16,8) --verify":
        "232d0d2800017e962f4f4b3f68779ee33e35daa7eb72fee76a4ed4f01bf65f29",
    "cover (3,1,10,5) --verify":
        "b23df38a325dbc81c4e2faae1ca72902bccc1f6eba7e2a5517a47f6a1ecc00bd",
    "cover (2,2,8,5) --verify":
        "fd1252309d46286ab5f02882c9ccdfd650735b053df0165f3996e2873753cc55",
    "cover (3,2,5,2) --verify":
        "63432c5edc17f74ef2a2d56b84b173843d6d3cdc0fde077842b804833d1b180f",
    "cover (2,1,14,9) --verify":
        "7e64e3bb1e77a233efe6635331ed7dc6dcb1d1704d10938dd5d00d4a2ec8c56a",
    "partition spread (2,1,14,1)":
        "0662ac4c27e342a638b5d10aa58e0793d17d11a605031ea05e72e023128a9b4c",
    "partition spread (2,2,7,1)":
        "3e33b2c52e0da7dfa609ff2c4882689857077a3c95a86358df9f7ac89e361993",
    "partition spread (3,1,9,1)":
        "fb14e9c35c101627a0855ec547e81d41e222340fe70f26ec1de85c3f8635b283",
    "partition spread (11,1,4,2)":
        "ea1a20990736cb708fcfe7de9c65ce9843c97183c708b83241ccb39fa5631c70",
    "partition spread (2,8,2,1)":
        "318ed4522597443394796a84b17461e9bdbf5dbe5298a66aa139d1fb33e56f7e",
    "partition mixed (2,1,14,3)":
        "2bdcac158969b4cdb9ede2cc18e6c991cbed15097e21952c62177101458abeba",
    "partition mixed (5,2,3,1)":
        "0611847158683a8efcaafae8fd0c3c7d632c2aca96af1be5f0aff1ec37e27f86",
    "cover (2,1,14,13)":
        "e015088c093b37ff433f3641ac82d3105bf682413786068825cb94165658f3c2",
    "min (2,1,7,3)":
        "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
    "min (2,1,7,4)":
        "a9742eb8ee320e006666aef25ae9aeed948247f3125c9cafa7cf97b7e7467dd5",
    "min (2,1,8,6)":
        "ff393127b5a059b172af9b9eed820368071cf24d46df1b8326623c8e79178379",
    "min (7,1,4,2)":
        "7ea9844ae84eccbf55e8330640865e36c43521e45a1baec24233327aab7e6595",
    "min (3,1,6,4)":
        "0433e993a3dbc505d6e5cad972a1df0ab189cfe7ceece5e94fd47ca9a074370f",
    "min (3,2,3,1)":
        "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469",
    "min (2,2,4,2)":
        "54183f4323f377b737433a1e98229ead0fdc686f93bab057ecb612daa94002b5",
}


def bases(commands) -> list[tuple[int, int]]:
    """The distinct base fields (p, m) a command list works over."""
    return sorted({(c.p, c.m) for c in commands})


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def cover_count(q: int, n: int, k: int) -> int:
    """ceil((q^n - 1) / (q^(n-k) - 1)): minimal cover by codim-k subspaces."""
    return -(-(q**n - 1) // (q ** (n - k) - 1))


def spread_count(q: int, n: int, d: int) -> int:
    """(q^n - 1) / (q^d - 1): parts of a d-spread of GF(q)^n."""
    return (q**n - 1) // (q**d - 1)


def mixed_count(q: int, n: int, d: int) -> int:
    """q^(n-d) + 1: one (n-d)-dimensional part plus q^(n-d) of dimension d."""
    return q ** (n - d) + 1


def part_dims(cmd: Command) -> list[int]:
    """Dimension of every subspace the construction must contain, in order
    up to the mixed partition's distinguished part coming first."""
    q, n, k = cmd.q, cmd.n, cmd.k
    if cmd.op == "cover":
        return [n - k] * cover_count(q, n, k)
    if cmd.kind == "spread":
        return [k] * spread_count(q, n, k)
    return [n - k] + [k] * (mixed_count(q, n, k) - 1)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _family_error(cmd: Command, subspaces, dims: list[int]) -> str | None:
    if len(subspaces) != len(dims):
        return f"{len(subspaces)} subspaces, want {len(dims)}"
    got = sorted(len(s["basis"]) for s in subspaces)
    if got != sorted(dims):
        return "subspace dimensions differ from the closed form"
    for s in subspaces:
        if s["n"] != cmd.n or any(len(row) != cmd.n for row in s["basis"]):
            return "subspace lives in the wrong ambient space"
    return None


def check_output(cmd: Command, code, out: str) -> str | None:
    """Why the command's result is wrong, or None when it is correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _output_error(cmd, out)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"stdout lacks the expected fields: {exc!r}"


def _output_error(cmd: Command, out: str) -> str | None:
    q, n = cmd.q, cmd.n
    full = {"ok": True, "uncovered": [], "double_covered": [],
            "checked": q**n - 1}
    if cmd.op == "min":
        want = f"{cover_count(q, n, cmd.k)}\n"
        if out != want:
            return f"stdout {out!r}, want {want!r}"
        return _digest_error(cmd, out)
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if cmd.read:
        return None if doc == full else f"verification report {doc!r}"
    dims = part_dims(cmd)
    if cmd.op == "cover":
        if doc["count"] != len(dims) or doc["codim"] != cmd.k:
            return "cover count or codimension differs from the closed form"
        err = _family_error(cmd, doc["subspaces"], dims)
        if err is None and cmd.verify and doc["verification"] != full:
            err = "verification report is not a full pass"
    else:
        if doc["kind"] != cmd.kind or doc["d"] != cmd.k:
            return "partition kind or part dimension differs"
        err = _family_error(cmd, doc["parts"], dims)
        if err is None and sum(q ** len(s["basis"]) - 1
                               for s in doc["parts"]) != q**n - 1:
            err = "part sizes do not add up to q^n - 1"
    return err or _digest_error(cmd, out)


def _digest_error(cmd: Command, out: str) -> str | None:
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != PINNED_SHA256.get(cmd.label):
        return "stdout differs from the pinned digest"
    return None


# ---------------------------------------------------------------------------
# seeded documents, with arithmetic of the benchmark's own
# ---------------------------------------------------------------------------

class Tables:
    """Addition and multiplication tables of GF(p^m) on the canonical
    integer encodings, built from the modulus a document carries."""

    def __init__(self, p: int, m: int, modulus):
        q = p**m
        digits = [[(e // p**i) % p for i in range(m)] for e in range(q)]

        def enc(coeffs):
            return sum(c * p**i for i, c in enumerate(coeffs))

        def mul(a, b):
            t = [0] * (2 * m - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    t[i + j] = (t[i + j] + x * y) % p
            for i in range(2 * m - 2, m - 1, -1):
                c = t[i]
                for j in range(m + 1):
                    t[i - m + j] = (t[i - m + j] - c * modulus[j]) % p
            return enc(t[:m])

        self.q = q
        self.add = [[enc([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(q)] for a in range(q)]
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]

    def vec_add(self, u, v):
        add = self.add
        return tuple(add[a][b] for a, b in zip(u, v))

    def vec_scale(self, c, u):
        row = self.mul[c]
        return tuple(row[a] for a in u)

    def linear_map(self, matrix):
        """The map v -> v * matrix, with every row's multiples precomputed."""
        multiples = [[self.vec_scale(c, row) for c in range(self.q)]
                     for row in matrix]
        zero = (0,) * len(matrix[0])

        def apply(v):
            out = zero
            for c, scaled in zip(v, multiples):
                if c:
                    out = self.vec_add(out, scaled[c])
            return out
        return apply

    def span_indices(self, basis, n):
        """Index sum(v[i] q^i) of every vector in the span of ``basis``."""
        vecs = [(0,) * n]
        for row in basis:
            multiples = [self.vec_scale(c, row) for c in range(1, self.q)]
            vecs += [self.vec_add(v, w) for v in vecs for w in multiples]
        q = self.q
        weights = [q**i for i in range(n)]
        return [sum(a * w for a, w in zip(v, weights)) for v in vecs]


def _rref_error(basis, n: int) -> str | None:
    pivots = []
    for row in basis:
        if len(row) != n:
            return "row of wrong length"
        lead = next((j for j, e in enumerate(row) if e), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return "basis is not in reduced row-echelon form"
        pivots.append(lead)
    for i, col in enumerate(pivots):
        if any(row[col] for r, row in enumerate(basis) if r != i):
            return "pivot column not cleared"
    return None


def document_error(cmd: Command, doc: dict) -> str | None:
    """Why a generated document is not a valid cover or partition of the
    command's shape, or None when it is one."""
    field = doc["ambient"]["field"]
    if (field["p"], field["m"], doc["ambient"]["n"]) != (cmd.p, cmd.m, cmd.n):
        return "document ambient space differs from the command"
    tables = Tables(cmd.p, cmd.m, field["modulus"])
    family = doc["subspaces"] if cmd.op == "cover" else doc["parts"]
    # shuffling may move the mixed partition's distinguished part anywhere
    if sorted(len(s["basis"]) for s in family) != sorted(part_dims(cmd)):
        return "subspace count or dimensions differ from the closed form"
    hits = bytearray(cmd.q**cmd.n)
    for s in family:
        err = _rref_error(s["basis"], cmd.n)
        if err:
            return err
        for idx in tables.span_indices(s["basis"], cmd.n):
            if hits[idx] < 2:
                hits[idx] += 1
    if 0 in hits[1:]:
        return "some nonzero vector is not covered"
    if cmd.op == "partition" and 2 in hits[1:]:
        return "some nonzero vector lies in two parts"
    return None


def _random_invertible(f, n: int, rng: random.Random):
    from subcover.linalg import rref

    while True:
        matrix = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        if rref(f, matrix)[1] == n:
            return matrix


def make_document(cmd: Command, rng: random.Random) -> dict:
    """A seeded GL(n, q) image of the command's construction, as the JSON
    document ``subcover verify`` reads.  Raises ValueError if the image is
    not a valid cover or partition of the same shape."""
    import subcover

    f = subcover.field_new(cmd.p, cmd.m)
    if cmd.op == "cover":
        doc = subcover.covers.cover_to_json(
            subcover.cover_finite(f, cmd.n, cmd.k))
        key = "subspaces"
    else:
        build = (subcover.spread_partition if cmd.kind == "spread"
                 else subcover.mixed_partition)
        doc = subcover.partitions.partition_to_json(build(f, cmd.n, cmd.k))
        key = "parts"
    matrix = _random_invertible(f, cmd.n, rng)
    apply = Tables(cmd.p, cmd.m, list(f.modulus)).linear_map(matrix)
    images = []
    for s in doc[key]:
        rows = [apply(row) for row in s["basis"]]
        image = subcover.subspace_from_generators(f, cmd.n, rows)
        images.append(dict(s, basis=[list(r) for r in image.basis]))
    rng.shuffle(images)
    doc[key] = images
    err = document_error(cmd, doc)
    if err:
        raise ValueError(f"generated document for {cmd.label} is invalid: {err}")
    return doc
