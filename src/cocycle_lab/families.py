"""Named conditionally negative length functions on the built-in groups."""
from __future__ import annotations

import numpy as np

from .cocycles import LengthFunction, cyclic_length, length_function, word_length_psi
from .groups import build_cyclic, build_heisenberg, build_power, coordinates


def walsh_length(n: int, m: int) -> LengthFunction:
    """Number of nonzero coordinates of Z_n^m; cn via the product of delta lengths."""
    if n < 2 or m < 1:
        raise ValueError(f"walsh length needs n >= 2, m >= 1, got n={n}, m={m}")
    group = build_power(n, m)
    digits = coordinates(group.order, [n] * m)
    return length_function(group, cyclic_length("delta", digits, n).sum(axis=0))


def delta_psi(n: int) -> LengthFunction:
    """psi = 1 - delta_e on Z_n: the flat length charging every nontrivial element once."""
    return length_function(build_cyclic(n), cyclic_length("delta", np.arange(n), n))


def _abelianized(n: int, mode: str) -> LengthFunction:
    """psi(a,b,c) = w(b) + w(c) on the mod-n Heisenberg group, w a cyclic length of Z_n."""
    group = build_heisenberg(n)
    _, b, c = coordinates(group.order, (n, n, n))
    return length_function(group, cyclic_length(mode, b, n) + cyclic_length(mode, c, n))


def heisenberg_delta(n: int) -> LengthFunction:
    """psi(a,b,c) = (1 - delta_{b,0}) + (1 - delta_{c,0}) on the mod-n Heisenberg group.

    Pulled back from the abelianization, so the center is in the kernel
    and the Gromov form degenerates there by design.
    """
    return _abelianized(n, "delta")


def heisenberg_wordlength(n: int) -> LengthFunction:
    """psi(a,b,c) = |b| + |c| with cyclic absolute values, also via the abelianization."""
    return _abelianized(n, "wordlength")


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
