"""Every builtin psi pinned bitwise against a decode written here, by divmod or bit count."""
import numpy as np
import pytest

from cocycle_lab.families import builtin_length
from cocycle_lab.groups import ORDER_CAP
from cocycle_lab.matrixalg import multiplier_symbol


def _digits(g: int, n: int, m: int) -> list:
    """The m base-n digits of g, most significant first."""
    out = []
    for _ in range(m):
        g, r = divmod(g, n)
        out.append(r)
    return out[::-1]


def _cyclic(mode: str, k: int, n: int) -> float:
    return float(k != 0) if mode == "delta" else float(min(k, n - k))


def _assert_bitwise(values: np.ndarray, expected: list) -> None:
    want = np.array(expected, dtype=float)
    assert values.dtype == want.dtype and values.shape == want.shape
    assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_walsh_is_the_hamming_weight_up_to_the_cap(n):
    m = 1
    while n ** m <= ORDER_CAP:
        psi = builtin_length(f"walsh:{n}:{m}")
        weights = [sum(d != 0 for d in _digits(g, n, m)) for g in range(n ** m)]
        if n == 2:
            assert weights == [bin(g).count("1") for g in range(2 ** m)]
        _assert_bitwise(psi.values, weights)
        assert psi.group.labels == tuple(
            "(" + ",".join(map(str, _digits(g, n, m))) + ")" for g in range(n ** m))
        m += 1


@pytest.mark.parametrize("n", [1, 2, 7, 256])
@pytest.mark.parametrize("mode", ["delta", "wordlength"])
def test_cyclic_lengths(n, mode):
    _assert_bitwise(builtin_length(f"{mode}:{n}").values, [_cyclic(mode, k, n) for k in range(n)])


@pytest.mark.parametrize("n", [2, 3, 5, 16])
@pytest.mark.parametrize("mode", ["delta", "wordlength"])
def test_heisenberg_lengths_read_b_and_c(n, mode):
    psi = builtin_length(f"heisenberg-{mode}:{n}")
    expected, labels = [], []
    for g in range(n ** 3):
        a, r = divmod(g, n * n)
        b, c = divmod(r, n)
        expected.append(_cyclic(mode, b, n) + _cyclic(mode, c, n))
        labels.append(f"({a},{b},{c})")
    _assert_bitwise(psi.values, expected)
    assert psi.group.labels == tuple(labels)


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("mode", ["delta", "wordlength"])
def test_multiplier_symbol(n, mode):
    sym = multiplier_symbol(n, mode)
    expected = [[_cyclic(mode, b, n) + _cyclic(mode, c, n) for c in range(n)] for b in range(n)]
    _assert_bitwise(sym, expected)
