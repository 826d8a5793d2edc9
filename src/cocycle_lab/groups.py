"""Finite groups as index tables.

Every group is a multiplication table over indices 0..order-1 with the
identity pinned at index 0.  All higher layers (length functions, group
algebra, dilations) index into these tables and never touch abstract
element objects.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .linalg import blocks

ORDER_CAP = 4096


class TableValidationError(ValueError):
    """A multiplication table violates a group axiom."""


class SizeCapError(ValueError):
    """Requested group exceeds the configured order cap."""


@dataclass(frozen=True)
class FiniteGroup:
    """A multiplication table with shared read-only index tables.

    A group that build_cyclic builds, or build_product from factors that are
    all such groups, records the orders of its cyclic factors in
    metadata["cyclic_radices"] and has a character table; every other group
    (Heisenberg, a loaded table, a mixed product) has characters None.
    """
    order: int
    mul: np.ndarray          # (order, order) int indices, mul[g, h] = g*h
    inv: np.ndarray          # (order,) int indices
    labels: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    @cached_property
    def conv_index(self) -> np.ndarray:
        """conv_index[s, u] = s^{-1} u; shared read-only convolution table."""
        return _frozen(self.mul[self.inv])

    @cached_property
    def rep_index(self) -> np.ndarray:
        """rep_index[x, y] = x y^{-1}; shared read-only regular-representation lookup."""
        return _frozen(self.mul[:, self.inv])

    @cached_property
    def characters(self) -> Optional[np.ndarray]:
        """characters[k, g] = exp(2 pi i sum_f k_f g_f / r_f) over the coordinates of k and g
        in the cyclic radices r; read-only, or None for a group without them."""
        radices = self.metadata.get("cyclic_radices")
        if radices is None:
            return None
        turns = math.lcm(*radices)
        phase = sum((np.outer(x, x) % r) * (turns // r)
                    for x, r in zip(coordinates(self.order, radices), radices))
        return _frozen(_roots_of_unity(turns)[phase % turns])

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _roots_of_unity(n: int) -> np.ndarray:
    """exp(2 pi i j / n) for j = 0..n-1, exact at the quarter turns (1, i, -1, -i)."""
    j = np.arange(n)
    w = np.exp(2j * np.pi * j / n)
    quarter = 4 * j % n == 0
    w[quarter] = np.array([1, 1j, -1, -1j])[4 * j[quarter] // n]
    return w


def validate_group(order: int, mul: np.ndarray, inv: np.ndarray) -> None:
    """Check the identity and inverse axioms, and prove associativity.

    Associativity is exact, by Light's test (A. H. Clifford and G. B. Preston,
    The Algebraic Theory of Semigroups I, 1961, sec. 1.2): (x*s)*y = x*(s*y)
    for all x, y and each s of a generating set S.  The s that pass contain e
    and are closed under products, as (x*ab)*y = (xa*b)*y = xa*by = x*(a*by) =
    x*(ab*y); so once S generates the table, every element passes.  S is
    greedy: each next s is the smallest element not yet reached from e by
    right products with S.  Cost order**2 * |S|, in linalg.blocks of 3 * order entries a row.
    Raises TableValidationError naming the first offending triple.
    """
    if mul.shape != (order, order):
        raise TableValidationError(f"mul table has shape {mul.shape}, expected {(order, order)}")
    if mul.min() < 0 or mul.max() >= order:
        bad = np.argwhere((mul < 0) | (mul >= order))[0]
        raise TableValidationError(
            f"mul({bad[0]},{bad[1]}) = {mul[bad[0], bad[1]]} out of range [0,{order})")
    idx = np.arange(order)
    if not np.array_equal(mul[0], idx):
        g = int(np.argmax(mul[0] != idx))
        raise TableValidationError(f"identity axiom fails: mul(0,{g}) = {mul[0, g]} != {g}")
    if not np.array_equal(mul[:, 0], idx):
        g = int(np.argmax(mul[:, 0] != idx))
        raise TableValidationError(f"identity axiom fails: mul({g},0) = {mul[g, 0]} != {g}")
    if inv.shape != (order,):
        raise TableValidationError(f"inv table has shape {inv.shape}, expected ({order},)")
    gi = mul[idx, inv]
    if not np.array_equal(gi, np.zeros(order, dtype=mul.dtype)):
        g = int(np.argmax(gi != 0))
        raise TableValidationError(
            f"inverse axiom fails: mul({g},inv({g})={inv[g]}) = {gi[g]} != 0")
    ig = mul[inv, idx]
    if not np.array_equal(ig, np.zeros(order, dtype=mul.dtype)):
        g = int(np.argmax(ig != 0))
        raise TableValidationError(
            f"inverse axiom fails: mul(inv({g})={inv[g]},{g}) = {ig[g]} != 0")

    t = mul.astype(np.min_scalar_type(order - 1))   # a narrow copy gathers faster
    spans, reached, cols = blocks(order, 3 * order), bytearray(order), []
    reached[0] = 1
    while (s := reached.find(0)) >= 0:        # the smallest element not yet reached
        for lo, hi in spans:
            block = t[lo:hi]
            lhs = t[block[:, s]]               # (x*s)*y over x in the block, all y
            rhs = block.take(t[s], axis=1)     # x*(s*y)
            if not np.array_equal(lhs, rhs):
                i, y = np.argwhere(lhs != rhs)[0]
                x = lo + i
                raise TableValidationError(
                    f"associativity fails at (i,j,k)=({x},{s},{y}): "
                    f"({x}*{s})*{y} = {lhs[i, y]} but {x}*({s}*{y}) = {rhs[i, y]}")
        cols.append(t[:, s].tolist())
        stack = [g for g in range(order) if reached[g]]
        while stack:                           # close the reached set under right products
            x = stack.pop()
            for col in cols:
                g = col[x]
                if not reached[g]:
                    reached[g] = 1
                    stack.append(g)


def _show(k: int) -> str:
    """k in decimal, or as a power of two when the decimal would be long."""
    return str(k) if k.bit_length() <= 128 else f"~2^{k.bit_length() - 1}"


def _finish(order: int, mul: np.ndarray, labels: Sequence[str],
            metadata: Optional[dict] = None) -> FiniteGroup:
    inv = np.argmax(mul == 0, axis=1).astype(mul.dtype)
    g = FiniteGroup(order, mul, inv, tuple(labels), metadata or {})
    validate_group(order, mul, inv)
    return g


def coordinates(order: int, radices: Sequence[int]) -> np.ndarray:
    """(len(radices), order) mixed-radix digits of the indices 0..order-1, first digit
    most significant: the one decode of every product and Heisenberg element encoding."""
    idx = np.arange(order)
    return np.array([idx // math.prod(radices[f + 1:]) % r for f, r in enumerate(radices)])


def build_cyclic(n: int) -> FiniteGroup:
    """Z_n with mul(i,j) = (i+j) mod n."""
    if n < 1:
        raise ValueError(f"cyclic group needs n >= 1, got {n}")
    if n > ORDER_CAP:
        raise SizeCapError(f"cyclic order {_show(n)} exceeds cap {ORDER_CAP}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return _finish(n, mul, [str(k) for k in range(n)],
                   {"kind": "cyclic", "n": n, "cyclic_radices": (n,)})


def build_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product with mixed-radix element encoding, first factor most significant.

    The cyclic radices are recorded when every factor has them."""
    if not factors:
        raise ValueError("product of zero factors")
    orders = [f.order for f in factors]
    order = math.prod(orders)                  # exact: an int64 product wraps past 2^63
    if order > ORDER_CAP:
        raise SizeCapError(f"product order {_show(order)} exceeds cap {ORDER_CAP}")
    digits = coordinates(order, orders)        # digits[f][g] = coordinate of g in factor f
    mul = np.zeros((order, order), dtype=np.int64)
    for f, grp in enumerate(factors):
        comp = grp.mul[np.ix_(digits[f], digits[f])]
        mul = mul * orders[f] + comp
    labels = ["(" + ",".join(f.label(int(k)) for f, k in zip(factors, col)) + ")"
              for col in digits.T]
    metadata = {"kind": "product", "orders": orders}
    radices = [f.metadata.get("cyclic_radices") for f in factors]
    if None not in radices:                    # every factor is cyclic or a product of cyclics
        metadata["cyclic_radices"] = tuple(r for rs in radices for r in rs)
    return _finish(order, mul, labels, metadata)


def build_power(n: int, m: int) -> FiniteGroup:
    """Z_n^m; n^m is held to ORDER_CAP before any factor exists, so a huge m fails at once."""
    if min(n, m) >= 1 and (max(n, m) > ORDER_CAP or n ** m > ORDER_CAP):
        what = f"order {_show(n)}^{_show(m)}" if n > 1 else f"factor count {_show(m)}"
        raise SizeCapError(f"product {what} exceeds cap {ORDER_CAP}")
    return build_product([build_cyclic(n)] * m)


def build_heisenberg(n: int) -> FiniteGroup:
    """H_3(Z_n): triples (a,b,c) with (a,b,c)*(a',b',c') = (a+a'+b c', b+b', c+c') mod n.

    This is the upper-unitriangular convention [[1,b,a],[0,1,c],[0,0,1]];
    the convention is recorded in the metadata.  Encoding (a,b,c) -> (a*n+b)*n+c,
    so the identity (0,0,0) sits at index 0.
    """
    if n < 2:
        raise ValueError(f"Heisenberg group needs n >= 2, got {n}")
    order = n ** 3
    if order > ORDER_CAP:
        raise SizeCapError(f"Heisenberg order {_show(order)} exceeds cap {ORDER_CAP}")
    abc = coordinates(order, (n, n, n))
    (a1, b1, c1), (a2, b2, c2) = abc[:, :, None], abc[:, None, :]
    mul = ((a1 + a2 + b1 * c2) % n) * n * n + ((b1 + b2) % n) * n + (c1 + c2) % n
    labels = [f"({a},{b},{c})" for a, b, c in abc.T]
    return _finish(order, mul, labels,
                   {"kind": "heisenberg", "n": n,
                    "convention": "matrix (a,b,c) = [[1,b,a],[0,1,c],[0,0,1]]"})


def group_to_dict(g: FiniteGroup) -> dict:
    d = {"order": g.order, "mul": g.mul.tolist()}
    if g.labels:
        d["labels"] = list(g.labels)
    return d


def save_group(g: FiniteGroup, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(group_to_dict(g), fh)
        fh.write("\n")


def is_number(v) -> bool:
    """v is a real number a float holds: not a bool (which Python counts as an int),
    a string, None or an int too large for a float."""
    if isinstance(v, bool) or not isinstance(v, Real):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _whole(v) -> bool:
    """v is a number without a fraction: not NaN or inf."""
    return is_number(v) and float(v).is_integer()


def group_from_dict(d: dict) -> FiniteGroup:
    try:
        if not _whole(d["order"]):
            raise ValueError(f"order {d['order']!r} is not an integer")
        order = int(d["order"])
        if order > ORDER_CAP:
            raise SizeCapError(f"order {order} exceeds cap {ORDER_CAP}")
        if isinstance(d["mul"], list) and all(isinstance(row, list) for row in d["mul"]):
            bad = [v for row in d["mul"] for v in row if not _whole(v)]
            if bad:                           # any other shape gets the shape message below
                raise ValueError(f"mul entry {bad[0]!r} is not an integer")
        mul = np.asarray(d["mul"], dtype=np.int64)
    except SizeCapError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TableValidationError(f"malformed group JSON: {exc}") from exc
    labels = d.get("labels", [])
    bad = [s for s in labels if not isinstance(s, str)] if isinstance(labels, list) else [labels]
    if bad:
        raise TableValidationError(
            f"labels must be a list of {order} strings, found type {type(bad[0]).__name__}")
    if labels and len(labels) != order:
        raise TableValidationError(
            f"got {len(labels)} labels for order {order}")
    if mul.shape != (order, order):
        raise TableValidationError(
            f"mul table has shape {mul.shape}, expected {(order, order)}")
    rows_ok = (np.sort(mul, axis=1) == np.arange(order)).all()
    if not rows_ok:
        r = int(np.argmin((np.sort(mul, axis=1) == np.arange(order)).all(axis=1)))
        raise TableValidationError(f"row {r} of mul is not a permutation (no inverse row)")
    return _finish(order, mul, labels, {"kind": "table"})


def load_group(path: str) -> FiniteGroup:
    """Load and fully validate a group table from JSON {"order", "mul", "labels"?}."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TableValidationError(f"invalid JSON in {path}: {exc}") from exc
    return group_from_dict(d)


def build_from_spec(spec: dict) -> FiniteGroup:
    """GroupSpec dispatch: {"kind": cyclic|product|heisenberg|table, ...}.

    A table spec holds the table itself ({"order", "mul", "labels"?}), never a path.
    """
    kind = spec.get("kind")
    if kind == "table":
        return group_from_dict(spec)
    if kind not in ("cyclic", "product", "heisenberg"):
        raise ValueError(f"unknown group kind {kind!r}")
    if "n" not in spec:
        raise ValueError(f"group kind {kind!r} needs the key 'n'")
    sizes = (spec["n"], spec.get("m", 1) if kind == "product" else 1)
    if not all(map(_whole, sizes)):
        raise ValueError(f"group kind {kind!r} needs integer sizes, got {spec!r}")
    n, m = map(int, sizes)
    if kind == "cyclic":
        return build_cyclic(n)
    if kind == "product":
        return build_power(n, m)
    return build_heisenberg(n)
