"""Every builtin psi pinned bitwise against a decode written here, by divmod or bit count."""
import numpy as np
import pytest

from cocycle_lab.cocycles import coordinate_length
from cocycle_lab.families import builtin_length, walsh_length
from cocycle_lab.groups import ORDER_CAP, build_power, coordinates
from cocycle_lab.matrixalg import heisenberg_multiplier


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
    sym = heisenberg_multiplier(n, mode).symbol
    expected = [_cyclic(mode, b, n) + _cyclic(mode, c, n) for b in range(n) for c in range(n)]
    _assert_bitwise(sym.values, expected)


def _assert_same_length(got, want) -> None:
    """Two length functions equal byte for byte: values, table, labels and metadata."""
    assert got.values.tobytes() == want.values.tobytes()
    assert got.group.mul.dtype == want.group.mul.dtype
    assert got.group.mul.tobytes() == want.group.mul.tobytes()
    assert got.group.labels == want.group.labels
    assert got.group.metadata == want.group.metadata


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_delta_symbol_is_the_walsh_length_on_z_n_squared(n):
    _assert_same_length(heisenberg_multiplier(n, "delta").symbol, walsh_length(n, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["delta", "wordlength"])
def test_heisenberg_length_is_the_symbol_pulled_back(n, mode):
    """psi on H_3(Z_n) at (a, b, c) is the multiplier's symbol at s = b n + c, bitwise."""
    psi = builtin_length(f"heisenberg-{mode}:{n}")
    _, b, c = coordinates(n ** 3, (n, n, n))
    sym = heisenberg_multiplier(n, mode).symbol.values
    assert psi.values.tobytes() == sym[b * n + c].tobytes()


def test_coordinate_length_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown psi_mode 'heat'"):
        coordinate_length(build_power(3, 2), (3, 3), (0, 1), "heat")
    with pytest.raises(ValueError, match="psi_mode"):
        heisenberg_multiplier(3, "heat")
