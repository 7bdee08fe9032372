"""Desk-scale size guards for exhaustive operations.

Everything in this package that enumerates vectors or whole fields is
capped so that exhaustive verification stays feasible.  The cap applies
to q**n (field order to the power of whatever is being enumerated) and
defaults to 2**20; it can be raised or lowered with the environment
variable SUBCOVER_MAX_Q_POW.
"""

import os

DEFAULT_MAX_Q_POW = 2**20

# Subspace enumeration (the oracle's search space) has its own default cap,
# expressed as a count of subspaces rather than a power of q.
DEFAULT_MAX_SUBSPACES = 100_000

_ENV_VAR = "SUBCOVER_MAX_Q_POW"


def max_q_pow() -> int:
    """Current bound on q**n for exhaustive operations."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_Q_POW
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{_ENV_VAR} must be at least 2, got {value}")
    return value


def check_enumeration_size(q: int, n: int, what: str) -> int:
    """Return q**n, the steps of an exhaustive operation (q >= 2, n >= 0),
    or raise ValueError if that is over the bound.  An n beyond the bound's
    bit length is over it, so q**n is never computed for a huge n."""
    bound = max_q_pow()
    if n > bound.bit_length() or q**n > bound:
        raise ValueError(
            f"{what} needs {q}^{n} enumeration steps, over the configured "
            f"bound {bound} (set {_ENV_VAR} to raise it)"
        )
    return q**n
