"""Named conditionally negative length functions on the built-in groups."""
from __future__ import annotations

import numpy as np

from .cocycles import LengthFunction, length_function, word_length_psi
from .groups import FiniteGroup, build_cyclic, build_heisenberg, build_product


def walsh_length(n: int, m: int) -> LengthFunction:
    """Number of nonzero coordinates of Z_n^m; cn via the product of delta lengths."""
    if n < 2 or m < 1:
        raise ValueError(f"walsh length needs n >= 2, m >= 1, got n={n}, m={m}")
    group = build_product([build_cyclic(n)] * m)
    coords = np.empty((group.order, m), dtype=np.int64)
    rem = np.arange(group.order)
    for i in range(m - 1, -1, -1):
        coords[:, i] = rem % n
        rem //= n
    return length_function(group, (coords != 0).sum(axis=1).astype(float))


def delta_psi(group_or_n) -> LengthFunction:
    """psi = 1 - delta_e: the flat length charging every nontrivial element once."""
    group = build_cyclic(group_or_n) if isinstance(group_or_n, int) else group_or_n
    psi = np.ones(group.order)
    psi[0] = 0.0
    return length_function(group, psi)


def heisenberg_delta(n: int) -> LengthFunction:
    """psi(a,b,c) = (1 - delta_{b,0}) + (1 - delta_{c,0}) on the mod-n Heisenberg group.

    Pulled back from the abelianization, so the center is in the kernel
    and the Gromov form degenerates there by design.
    """
    group = build_heisenberg(n)
    idx = np.arange(group.order)
    b = (idx // n) % n
    c = idx % n
    return length_function(group, (b != 0).astype(float) + (c != 0).astype(float))


def heisenberg_wordlength(n: int) -> LengthFunction:
    """psi(a,b,c) = |b| + |c| with cyclic absolute values, also via the abelianization."""
    group = build_heisenberg(n)
    idx = np.arange(group.order)
    b = (idx // n) % n
    c = idx % n
    return length_function(group, (np.minimum(b, n - b) + np.minimum(c, n - c)).astype(float))


def builtin_length(spec: str) -> LengthFunction:
    """Parse 'walsh:n:m', 'delta:n', 'wordlength:n', 'heisenberg-delta:n',
    'heisenberg-wordlength:n'."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"non-integer parameter in length spec {spec!r}") from None
    table = {
        "walsh": (walsh_length, 2),
        "delta": (delta_psi, 1),
        "wordlength": (word_length_psi, 1),
        "heisenberg-delta": (heisenberg_delta, 1),
        "heisenberg-wordlength": (heisenberg_wordlength, 1),
    }
    if kind not in table:
        raise ValueError(f"unknown length family {kind!r}; choose from {sorted(table)}")
    fn, arity = table[kind]
    if len(nums) != arity:
        raise ValueError(f"{kind} takes {arity} integer parameter(s), got {len(nums)}")
    return fn(*nums)
