"""Named conditionally negative length functions on the built-in groups."""
from __future__ import annotations

import numpy as np

from .cocycles import LengthFunction, length_function, word_length_psi
from .groups import build_cyclic, build_heisenberg, build_power


def walsh_length(n: int, m: int) -> LengthFunction:
    """Number of nonzero coordinates of Z_n^m; cn via the product of delta lengths."""
    if n < 2 or m < 1:
        raise ValueError(f"walsh length needs n >= 2, m >= 1, got n={n}, m={m}")
    group = build_power(n, m)
    coords = np.empty((group.order, m), dtype=np.int64)
    rem = np.arange(group.order)
    for i in range(m - 1, -1, -1):
        coords[:, i] = rem % n
        rem //= n
    return length_function(group, (coords != 0).sum(axis=1).astype(float))


def delta_psi(n: int) -> LengthFunction:
    """psi = 1 - delta_e on Z_n: the flat length charging every nontrivial element once."""
    return length_function(build_cyclic(n), (np.arange(n) > 0).astype(float))


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


_ECHO = 80     # longest spec text an error message echoes in full


def _shown(text: str) -> str:
    return repr(text if len(text) <= _ECHO else text[:_ECHO - 3] + "...")


def _spec_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    digits = text.strip().lstrip("+-")
    if digits.isdecimal():      # a number past int()'s digit limit
        raise ValueError(f"{len(digits)}-digit parameter is too large in length spec {_shown(spec)}")
    raise ValueError(f"non-integer parameter in length spec {_shown(spec)}")


def builtin_length(spec: str) -> LengthFunction:
    """Parse 'walsh:n:m', 'delta:n', 'wordlength:n', 'heisenberg-delta:n',
    'heisenberg-wordlength:n'."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    nums = [_spec_int(a, spec) for a in args]
    table = {
        "walsh": (walsh_length, 2),
        "delta": (delta_psi, 1),
        "wordlength": (word_length_psi, 1),
        "heisenberg-delta": (heisenberg_delta, 1),
        "heisenberg-wordlength": (heisenberg_wordlength, 1),
    }
    if kind not in table:
        raise ValueError(f"unknown length family {_shown(kind)}; choose from {sorted(table)}")
    fn, arity = table[kind]
    if len(nums) != arity:
        raise ValueError(f"{kind} takes {arity} integer parameter(s), got {len(nums)}")
    return fn(*nums)
