"""Finite groups as index tables.

Every group is a multiplication table over indices 0..order-1 with the
identity pinned at index 0.  All higher layers (length functions, group
algebra, dilations) index into these tables and never touch abstract
element objects.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

ORDER_CAP = 4096
_BLOCK = 2 ** 20      # table entries per row block of the associativity check


class TableValidationError(ValueError):
    """A multiplication table violates a group axiom."""


class SizeCapError(ValueError):
    """Requested group exceeds the configured order cap."""


@dataclass(frozen=True)
class FiniteGroup:
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

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def validate_group(order: int, mul: np.ndarray, inv: np.ndarray) -> None:
    """Check the identity and inverse axioms, and prove associativity.

    Associativity is exact, by Light's test (A. H. Clifford and G. B. Preston,
    The Algebraic Theory of Semigroups I, 1961, sec. 1.2): (x*s)*y = x*(s*y)
    for all x, y and each s of a generating set S.  The s that pass contain e
    and are closed under products, as (x*ab)*y = (xa*b)*y = xa*by = x*(a*by) =
    x*(ab*y); so once S generates the table, every element passes.  S is
    greedy: each next s is the smallest element not yet reached from e by
    right products with S.  Cost order**2 * |S|, in row blocks of _BLOCK entries.
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
    step = max(1, _BLOCK // order)
    reached, cols = bytearray(order), []
    reached[0] = 1
    while (s := reached.find(0)) >= 0:        # the smallest element not yet reached
        for lo in range(0, order, step):
            block = t[lo:lo + step]
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


def _finish(order: int, mul: np.ndarray, labels: Sequence[str],
            metadata: Optional[dict] = None) -> FiniteGroup:
    inv = np.argmax(mul == 0, axis=1).astype(mul.dtype)
    g = FiniteGroup(order, mul, inv, tuple(labels), metadata or {})
    validate_group(order, mul, inv)
    return g


def build_cyclic(n: int) -> FiniteGroup:
    """Z_n with mul(i,j) = (i+j) mod n."""
    if n < 1:
        raise ValueError(f"cyclic group needs n >= 1, got {n}")
    if n > ORDER_CAP:
        raise SizeCapError(f"cyclic order {n} exceeds cap {ORDER_CAP}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return _finish(n, mul, [str(k) for k in range(n)], {"kind": "cyclic", "n": n})


def build_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product with mixed-radix element encoding, first factor most significant."""
    if not factors:
        raise ValueError("product of zero factors")
    orders = [f.order for f in factors]
    order = int(np.prod(orders))
    if order > ORDER_CAP:
        raise SizeCapError(f"product order {order} exceeds cap {ORDER_CAP}")
    idx = np.arange(order)
    digits = []
    rem = idx
    for o in reversed(orders):
        digits.append(rem % o)
        rem = rem // o
    digits = digits[::-1]                      # digits[f][g] = coordinate of g in factor f
    mul = np.zeros((order, order), dtype=np.int64)
    for f, grp in enumerate(factors):
        comp = grp.mul[np.ix_(digits[f], digits[f])]
        mul = mul * orders[f] + comp
    labels = []
    for g in range(order):
        labels.append("(" + ",".join(factors[f].label(int(digits[f][g]))
                                     for f in range(len(factors))) + ")")
    return _finish(order, mul, labels,
                   {"kind": "product", "orders": orders})


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
        raise SizeCapError(f"Heisenberg order {order} exceeds cap {ORDER_CAP}")
    idx = np.arange(order)
    a, b, c = idx // (n * n), (idx // n) % n, idx % n
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    mul = ((a1 + a2 + b1 * c2) % n) * n * n + ((b1 + b2) % n) * n + (c1 + c2) % n
    labels = [f"({a[g]},{b[g]},{c[g]})" for g in range(order)]
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


def group_from_dict(d: dict) -> FiniteGroup:
    try:
        order = int(d["order"])
        mul = np.asarray(d["mul"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise TableValidationError(f"malformed group JSON: {exc}") from exc
    labels = tuple(d.get("labels", ()))
    if labels and len(labels) != order:
        raise TableValidationError(
            f"got {len(labels)} labels for order {order}")
    if mul.shape != (order, order):
        raise TableValidationError(
            f"mul table has shape {mul.shape}, expected {(order, order)}")
    if order > ORDER_CAP:
        raise SizeCapError(f"order {order} exceeds cap {ORDER_CAP}")
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
    try:
        n = int(spec["n"])
        m = int(spec.get("m", 1)) if kind == "product" else 1
    except (TypeError, ValueError):
        raise ValueError(f"group kind {kind!r} needs integer sizes, got {spec!r}") from None
    if kind == "cyclic":
        return build_cyclic(n)
    if kind == "product":
        return build_product([build_cyclic(n)] * m)
    return build_heisenberg(n)
