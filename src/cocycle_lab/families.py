"""Named conditionally negative length functions on the built-in groups."""
from __future__ import annotations

from .cocycles import LengthFunction, coordinate_length, word_length_psi
from .groups import build_cyclic, build_heisenberg, build_power
from .linalg import echo, is_integer, require


def walsh_length(n: int, m: int) -> LengthFunction:
    """Number of nonzero coordinates of Z_n^m; cn via the product of delta lengths."""
    for name, size, least in (("walsh n", n, 2), ("walsh m", m, 1)):
        require(size, name, lambda v: is_integer(v) and v >= least, f"an integer >= {least}")
    return coordinate_length(build_power(n, m), (n,) * m, range(m), "delta")


def delta_psi(n: int) -> LengthFunction:
    """psi = 1 - delta_e on Z_n: the flat length charging every nontrivial element once."""
    return coordinate_length(build_cyclic(n), (n,), (0,), "delta")


def heisenberg_delta(n: int) -> LengthFunction:
    """psi(a,b,c) = (1 - delta_{b,0}) + (1 - delta_{c,0}) on the mod-n Heisenberg group, pulled
    back from the abelianization: the center is in the kernel, where K degenerates by design."""
    return coordinate_length(build_heisenberg(n), (n, n, n), (1, 2), "delta")


def heisenberg_wordlength(n: int) -> LengthFunction:
    """psi(a,b,c) = |b| + |c| with cyclic absolute values, also via the abelianization."""
    return coordinate_length(build_heisenberg(n), (n, n, n), (1, 2), "wordlength")


def _spec_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    digits = text.strip().lstrip("+-")
    if digits.isdecimal():      # a number past int()'s digit limit
        raise ValueError(f"{len(digits)}-digit parameter is too large in length spec {echo(spec)!r}")
    raise ValueError(f"non-integer parameter in length spec {echo(spec)!r}")


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
    require(kind, "length family", lambda v: v in table, "one of " + ", ".join(table))
    fn, arity = table[kind]
    if len(nums) != arity:
        raise ValueError(f"{kind} takes {arity} integer parameter(s), got {len(nums)}")
    return fn(*nums)
