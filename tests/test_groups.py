import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab.groups import (ORDER_CAP, FiniteGroup, SizeCapError,
                                TableValidationError, build_cyclic,
                                build_from_spec, build_heisenberg,
                                build_power, build_product, coordinates,
                                group_from_dict, group_to_dict, load_group,
                                save_group, validate_group)

from cocycle_lab.families import builtin_length

from conftest import associativity_failure


def test_cyclic_tables():
    g = build_cyclic(5)
    assert g.order == 5
    assert g.mul[2, 4] == 1
    assert list(g.inv) == [0, 4, 3, 2, 1]
    assert g.is_abelian()
    assert g.label(3) == "3"


@given(st.integers(min_value=1, max_value=40))
def test_cyclic_inverse_property(n):
    g = build_cyclic(n)
    assert ((np.arange(n) + g.inv) % n == 0).all()


def reference_product(factors):
    """(table, labels) of a direct product by one |G|^2 gather per factor: the factor's table
    at every pair of its digits, mixed-radix, first factor most significant.  The reference
    route for build_product's one broadcast per factor."""
    orders = [f.order for f in factors]
    digits = coordinates(int(np.prod(orders)), orders)
    mul = 0
    for f, grp in enumerate(factors):
        mul = mul * orders[f] + grp.mul[np.ix_(digits[f], digits[f])]
    labels = tuple("(" + ",".join(f.label(int(k)) for f, k in zip(factors, col)) + ")"
                   for col in digits.T)
    return mul, labels


@pytest.mark.parametrize("factors", [
    lambda: [build_cyclic(3), build_cyclic(4), build_cyclic(5)],
    lambda: [build_heisenberg(2), build_cyclic(2)],
    lambda: [build_cyclic(2)] * 12,
    lambda: [build_product([build_cyclic(2), build_cyclic(3)]), build_heisenberg(2)]],
    ids=["Z3xZ4xZ5", "H3(Z2)xZ2", "Z2^12", "(Z2xZ3)xH3(Z2)"])
def test_product_table_matches_the_per_factor_reference(factors):
    factors = factors()
    g = build_product(factors)
    mul, labels = reference_product(factors)
    assert g.mul.dtype == mul.dtype and np.array_equal(g.mul, mul)
    assert g.labels == labels


def test_product_mixed_radix():
    g = build_product([build_cyclic(2), build_cyclic(3)])
    # first factor most significant: (1,2) -> 1*3+2
    assert g.order == 6
    assert g.label(5) == "(1,2)"
    assert g.mul[5, 4] == 0          # (1,2)*(1,1) = (0,0)
    assert g.conv_index[5, 5] == 0


def test_product_z3_z4_is_z12():
    g = build_product([build_cyclic(3), build_cyclic(4)])
    orders = []
    for h in range(g.order):            # the order of h by iterated multiplication
        x, k = h, 1
        while x != 0:
            x, k = int(g.mul[x, h]), k + 1
        orders.append(k)
    census = {d: orders.count(d) for d in sorted(set(orders))}
    # Z_12 has phi(d) elements of order d for each divisor d
    assert census == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}


def test_heisenberg_structure():
    g = build_heisenberg(2)
    assert g.order == 8
    enc = lambda a, b, c: (a * 2 + b) * 2 + c
    # (0,1,0)*(0,0,1) = (1,1,1) but (0,0,1)*(0,1,0) = (0,1,1)
    assert g.mul[enc(0, 1, 0), enc(0, 0, 1)] == enc(1, 1, 1)
    assert g.mul[enc(0, 0, 1), enc(0, 1, 0)] == enc(0, 1, 1)
    assert not g.is_abelian()
    # inverse of (a,b,c) is (-a+bc, -b, -c)
    assert g.inv[enc(1, 1, 1)] == enc(0, 1, 1)
    assert "[[1,b,a],[0,1,c],[0,0,1]]" in g.metadata["convention"]


def test_heisenberg_odd_n_inverse_formula():
    n = 3
    g = build_heisenberg(n)
    for gi in range(g.order):
        a, b, c = gi // (n * n), (gi // n) % n, gi % n
        expected = ((-a + b * c) % n * n + (-b) % n) * n + (-c) % n
        assert g.inv[gi] == expected


def test_validate_catches_identity_violation():
    mul = build_cyclic(4).mul.copy()
    mul[0, 2] = 3
    mul[0, 3] = 2
    with pytest.raises(TableValidationError, match=r"identity axiom fails: mul\(0,2\)"):
        validate_group(4, mul, np.array([0, 3, 2, 1]))


def test_validate_catches_associativity_violation():
    # swap row-1 entries in Z_5: rows stay permutations, identity and
    # inverse axioms still hold, but (1*1)*2 != 1*(1*2)
    mul = build_cyclic(5).mul.copy()
    mul[1, 2], mul[1, 3] = mul[1, 3], mul[1, 2]
    inv = np.argmax(mul == 0, axis=1)
    with pytest.raises(TableValidationError, match="associativity fails"):
        validate_group(5, mul, inv)


def test_group_from_dict_rejects_non_permutation_row():
    d = group_to_dict(build_cyclic(4))
    d["mul"][2] = [2, 2, 0, 1]        # the group axioms, not a row check, reject it
    with pytest.raises(TableValidationError, match=re.escape(
            "associativity fails at (i,j,k)=(1,1,1): (1*1)*1 = 2 but 1*(1*1) = 3") + "$"):
        group_from_dict(d)


def test_inverse_axiom_violation_named():
    mul = build_cyclic(5).mul.copy()
    # swap zeros of rows 2 and 3 (columns 3 and 2): rows stay permutations
    mul[2, 2], mul[2, 3] = mul[2, 3], mul[2, 2]
    mul[3, 2], mul[3, 3] = mul[3, 3], mul[3, 2]
    inv = np.argmax(mul == 0, axis=1)
    with pytest.raises(TableValidationError, match="inverse axiom fails|associativity"):
        validate_group(5, mul, inv)


def test_group_from_dict_checks_the_cap_before_reading_mul():
    with pytest.raises(SizeCapError, match=f"^order 5000 exceeds cap {ORDER_CAP}$"):
        group_from_dict({"order": 5000, "mul": [[0]]})


def test_a_product_of_zero_factors_is_refused():
    with pytest.raises(ValueError, match="^product of zero factors$"):
        build_product([])


def test_size_caps():
    with pytest.raises(SizeCapError, match=f"cyclic order {ORDER_CAP + 1} exceeds cap {ORDER_CAP}"):
        build_cyclic(ORDER_CAP + 1)
    with pytest.raises(SizeCapError):
        build_heisenberg(17)
    with pytest.raises(SizeCapError):
        build_product([build_cyclic(65), build_cyclic(65)])
    with pytest.raises(SizeCapError, match=f"product order {2 ** 64} exceeds cap {ORDER_CAP}"):
        build_product([build_cyclic(2)] * 64)
    # exactly at the cap is fine
    assert build_product([build_cyclic(64), build_cyclic(64)]).order == ORDER_CAP
    # n^m is held to the cap before any factor list exists, and the message stays short
    for n, m, what in ((2, 2 ** 70, f"order 2^{2 ** 70}"), (2, 10 ** 8, f"order 2^{10 ** 8}"),
                       (2, 13, "order 2^13"), (4097, 1, "order 4097^1"),
                       (1, 10 ** 8, f"factor count {10 ** 8}")):
        start = time.perf_counter()
        with pytest.raises(SizeCapError,
                           match=f"^product {re.escape(what)} exceeds cap {ORDER_CAP}$"):
            build_from_spec({"kind": "product", "n": n, "m": m})
        assert time.perf_counter() - start < 1.0
    assert build_from_spec({"kind": "product", "n": 16, "m": 3}).order == ORDER_CAP
    with pytest.raises(SizeCapError, match=rf"^Heisenberg order ~2\^14948 exceeds cap {ORDER_CAP}$"):
        build_heisenberg(10 ** 1500 - 1)


def test_exact_associativity_above_512():
    g = build_cyclic(514)
    validate_group(g.order, g.mul, g.inv)
    mul = g.mul.copy()
    for r in (1, 258):                  # swap the intercalate at rows 1, 258 and columns 5, 262
        mul[r, 5], mul[r, 262] = mul[r, 262], mul[r, 5]
    with pytest.raises(TableValidationError, match="associativity fails"):
        validate_group(g.order, mul, g.inv)


def _swapped_intercalates(mul: np.ndarray):
    """Copies of mul with one 2x2 Latin subsquare swapped, for every one clear of e.

    Rows r1 < r2 and columns c1 < c2 with mul[r1,c1] = mul[r2,c2] and
    mul[r1,c2] = mul[r2,c1]; the identity row and column and every entry 0
    are left alone, so the identity and inverse axioms still hold and
    associativity is the only axiom in question.
    """
    n = len(mul)
    pos = np.argsort(mul, axis=1)               # pos[r, v] = column of v in row r
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                a, b = mul[r1, c1], mul[r2, c1]
                c2 = pos[r1, b]
                if c2 > c1 and mul[r2, c2] == a and 0 not in (a, b):
                    bad = mul.copy()
                    bad[r1, c1], bad[r1, c2], bad[r2, c1], bad[r2, c2] = b, a, a, b
                    yield bad


def test_light_test_agrees_with_exhaustive_reference():
    # groups of order 8-16: cyclic, Z_2^m, Heisenberg and mixed products
    z = build_cyclic
    groups = ([z(n) for n in range(8, 17)]
              + [build_product([z(2)] * 3), build_product([z(2)] * 4), build_heisenberg(2)]
              + [build_product([z(a), z(b)]) for a, b in ((2, 4), (3, 3), (2, 5), (2, 6),
                                                         (3, 4), (2, 7), (3, 5), (2, 8), (4, 4))]
              + [build_product([z(2), z(2), z(3)]), build_product([z(2), z(2), z(4)])])
    checked = 0
    for g in groups:
        assert associativity_failure(g.mul) is None
        validate_group(g.order, g.mul, g.inv)
        for mul in _swapped_intercalates(g.mul):
            assert associativity_failure(mul) is not None
            with pytest.raises(TableValidationError, match="associativity fails") as err:
                validate_group(g.order, mul, g.inv)
            x, s, y = map(int, re.search(r"=\((\d+),(\d+),(\d+)\)", str(err.value)).groups())
            assert mul[mul[x, s], y] != mul[x, mul[s, y]]     # the named triple fails
            checked += 1
    assert checked > 1000


def test_corrupted_intercalate_at_order_1024_rejected():
    # Z_2 x Z_512 with the intercalate at rows 1, 513 and columns 5, 517 swapped:
    # rows and columns stay permutations, so only an exact associativity check sees it
    d = group_to_dict(build_product([build_cyclic(2), build_cyclic(512)]))
    for r in (1, 513):
        d["mul"][r][5], d["mul"][r][517] = d["mul"][r][517], d["mul"][r][5]
    with pytest.raises(TableValidationError,
                       match=r"associativity fails at \(i,j,k\)=\(\d+,\d+,\d+\)"):
        group_from_dict(d)


def test_save_load_roundtrip(tmp_path):
    g = build_heisenberg(2)
    path = tmp_path / "h2.json"
    save_group(g, str(path))
    g2 = load_group(str(path))
    assert g2.order == g.order
    assert np.array_equal(g2.mul, g.mul)
    assert np.array_equal(g2.inv, g.inv)
    assert g2.labels == g.labels


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TableValidationError, match=f"^{re.escape(str(path))} is not valid JSON: "):
        load_group(str(path))
    for table, want in (({"order": 2}, "table lacks 'mul'"), ({}, "table lacks 'order', 'mul'"),
                        ({"order": 2, "mul": [[0, 1], [1]]},
                         "mul[1] = [1] is not a list of length 2")):
        with pytest.raises(TableValidationError,
                           match=f"^malformed group JSON: {re.escape(want)}$"):
            group_from_dict(table)
        path.write_text(json.dumps(table))       # the file's name leads the same message
        with pytest.raises(TableValidationError,
                           match=f"^{re.escape(str(path))}: malformed group JSON: "
                                 f"{re.escape(want)}$"):
            load_group(str(path))
    path.write_text(json.dumps({"order": 4097, "mul": []}))
    with pytest.raises(SizeCapError, match=f"^{re.escape(str(path))}: order 4097 exceeds cap"):
        load_group(str(path))


def test_load_rejects_label_mismatch():
    d = group_to_dict(build_cyclic(3))
    d["labels"] = ["a", "b"]
    with pytest.raises(TableValidationError, match="labels"):
        group_from_dict(d)


def test_group_from_dict_requires_a_list_of_string_labels():
    d = group_to_dict(build_cyclic(2))
    for labels, want in ((5, "labels = 5 is not a list of length 2"),
                         ("ab", 'labels = "ab" is not a list of length 2'),
                         ([None, {"x": 1}], "labels[0] = null is not a string"),
                         (["a", {"x": 1}], 'labels[1] = {"x": 1} is not a string')):
        with pytest.raises(TableValidationError,
                           match=f"^malformed group JSON: {re.escape(want)}$"):
            group_from_dict({**d, "labels": labels})
    assert group_from_dict({**d, "labels": ["e", "x"]}).labels == ("e", "x")


def test_build_from_spec_dispatch():
    assert build_from_spec({"kind": "cyclic", "n": 6}).order == 6
    assert build_from_spec({"kind": "product", "n": 2, "m": 3}).order == 8
    assert build_from_spec({"kind": "heisenberg", "n": 2}).order == 8
    d = group_to_dict(build_cyclic(3))
    d["kind"] = "table"
    assert build_from_spec(d).order == 3
    with pytest.raises(ValueError, match='^group kind = "dihedral" is not one of table, cyclic, '
                                         'product, heisenberg$'):
        build_from_spec({"kind": "dihedral", "n": 3})
    with pytest.raises(TableValidationError, match="malformed group JSON"):
        build_from_spec({"kind": "table", "path": "z3.json"})     # a spec holds the table
    for kind in ("cyclic", "product", "heisenberg"):
        with pytest.raises(ValueError, match=f"^group kind '{kind}' needs the key 'n'$"):
            build_from_spec({"kind": kind})
    for spec, key in (({"kind": "cyclic", "n": 4, "m": 9}, "m"),
                      ({"kind": "heisenberg", "n": 2, "path": "x"}, "path"),
                      ({"kind": "product", "n": 2, "m": 2, "labels": []}, "labels")):
        with pytest.raises(ValueError, match=f"^group kind '{spec['kind']}' does not read the key "
                                             f"'{key}'$"):
            build_from_spec(spec)
    for kind, shown in (([1], r"\[1\]"), (None, "null")):
        with pytest.raises(ValueError, match=f"^group kind = {shown} is not one of table, cyclic, "
                                             "product, heisenberg$"):
            build_from_spec({"kind": kind, "n": 3} if kind else {"n": 3})
    # a size that is no whole number reaches its builder, which names it
    for spec, want in (({"kind": "cyclic", "n": None}, "cyclic n = null is not an integer >= 1"),
                       ({"kind": "product", "n": 2, "m": "x"},
                        'product m = "x" is not an integer >= 1'),
                       ({"kind": "cyclic", "n": 4.7}, "cyclic n = 4.7 is not an integer >= 1"),
                       ({"kind": "cyclic", "n": "4"}, 'cyclic n = "4" is not an integer >= 1'),
                       ({"kind": "cyclic", "n": True}, "cyclic n = true is not an integer >= 1"),
                       ({"kind": "product", "n": 2, "m": 2.9},
                        "product m = 2.9 is not an integer >= 1"),
                       ({"kind": "heisenberg", "n": float("nan")},
                        "Heisenberg n = NaN is not an integer >= 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            build_from_spec(spec)
    with pytest.raises(SizeCapError, match=f"^cyclic order ~2\\^1328 exceeds cap {ORDER_CAP}$"):
        build_from_spec({"kind": "cyclic", "n": 10 ** 400})


def test_group_from_dict_accepts_only_integral_entries():
    assert build_from_spec({"kind": "product", "n": 2.0, "m": 2}).order == 4
    d = group_to_dict(build_cyclic(3))
    assert group_from_dict({**d, "mul": [[float(v) for v in row] for row in d["mul"]]}).order == 3
    digits = "1" + "0" * 76 + "..."        # 10 ** 400, echoed in its first 80 characters
    for change, want in (({"order": 2.9}, "order = 2.9 is not a positive integer"),
                         ({"order": True}, "order = true is not a positive integer"),
                         ({"order": "3"}, 'order = "3" is not a positive integer'),
                         ({"order": 0}, "order = 0 is not a positive integer"),
                         ({"order": 10 ** 400}, f"order = {digits} is not a positive integer"),
                         ({"mul": [[0, 1, 2], [1, 1.7, 0], [2, 0, 1]]},
                          "mul[1][1] = 1.7 is not an integer"),
                         ({"mul": [[0, 1, 2], [1, 2, 0], [2, 0, True]]},
                          "mul[2][2] = true is not an integer"),
                         ({"mul": [[0, 1, 2], [1, "2", 0], [2, 0, 1]]},
                          'mul[1][1] = "2" is not an integer'),
                         ({"mul": [[0, 1, 2], [1, 2, 0], [2, 0, None]]},
                          "mul[2][2] = null is not an integer"),
                         ({"mul": [[0, 1, 2], [1, 2, 0], [2, 0, 10 ** 400]]},
                          f"mul[2][2] = {digits} is not an integer"),
                         ({"mul": 5}, "mul = 5 is not a list of length 3"),
                         ({"mul": [0, 1, 2]}, "mul[0] = 0 is not a list of length 3"),
                         ({"mul": [[0, 1, 2], [1, 2, 0], [2, 0]]},
                          "mul[2] = [2, 0] is not a list of length 3")):
        with pytest.raises(TableValidationError,
                           match=f"^malformed group JSON: {re.escape(want)}$"):
            group_from_dict({**d, **change})
    with pytest.raises(TableValidationError, match="^malformed group JSON: .*too large"):
        group_from_dict({**d, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 2 ** 63]]})


def test_validate_group_names_each_failing_axiom():
    z3 = build_cyclic(3)
    mul, inv = np.array(z3.mul), np.array(z3.inv)
    ragged = np.array([[0, 1, 3], [1, 2, 0], [2, 0, 1]])
    right = np.array([[0, 1, 2], [2, 2, 0], [2, 0, 1]])
    # right inverses inv = (0, 2, 3, 1) hold, but inv(1) = 2 is no left inverse: mul(2, 1) = 3
    loop = np.array([[0, 1, 2, 3], [1, 1, 0, 1], [2, 3, 1, 0], [3, 0, 1, 1]])
    for order, m, i, want in (
            (3, mul[:2, :2], inv, "mul table has shape (2, 2), expected (3, 3)"),
            (3, ragged, inv, "mul(0,2) = 3 out of range [0,3)"),
            (3, right, inv, "identity axiom fails: mul(1,0) = 2 != 1"),
            (3, mul, inv[:2], "inv table has shape (2,), expected (3,)"),
            (3, mul, np.arange(3), "inverse axiom fails: mul(1,inv(1)=1) = 2 != 0"),
            (4, loop, np.array([0, 2, 3, 1]), "inverse axiom fails: mul(inv(1)=2,1) = 3 != 0")):
        with pytest.raises(TableValidationError, match=f"^{re.escape(want)}$"):
            validate_group(order, m, i)


def test_shared_index_tables():
    g = build_cyclic(6)
    assert np.array_equal(g.conv_index, g.mul[g.inv])
    assert np.array_equal(g.rep_index, g.mul[:, g.inv])
    with pytest.raises(ValueError):
        g.mul[0, 0] = 1   # tables are frozen read-only


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_coordinates_add_digitwise_on_powers(n, data):
    m = data.draw(st.integers(min_value=1, max_value=max(k for k in range(1, 10) if n ** k <= 512)))
    g = build_power(n, m)
    d = coordinates(g.order, [n] * m)
    assert d.shape == (m, g.order)
    assert np.array_equal(d.T @ n ** np.arange(m - 1, -1, -1), np.arange(g.order))
    assert np.array_equal(d[:, g.mul], (d[:, :, None] + d[:, None, :]) % n)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_coordinates_follow_the_heisenberg_law(n):
    g = build_heisenberg(n)
    a, b, c = coordinates(g.order, (n, n, n))
    assert np.array_equal((a * n + b) * n + c, np.arange(g.order))
    assert g.labels == tuple(f"({x},{y},{z})" for x, y, z in zip(a, b, c))
    pa, pb, pc = coordinates(g.order, (n, n, n))[:, g.mul]
    assert np.array_equal(pa, (a[:, None] + a[None, :] + b[:, None] * c[None, :]) % n)
    assert np.array_equal(pb, (b[:, None] + b[None, :]) % n)
    assert np.array_equal(pc, (c[:, None] + c[None, :]) % n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["delta", "wordlength", "walsh"]), st.data())
def test_characters_are_an_orthogonal_homomorphism(kind, data):
    if kind == "walsh":
        n = data.draw(st.integers(min_value=2, max_value=5))
        m = data.draw(st.integers(min_value=1, max_value=max(k for k in range(1, 7) if n ** k <= 64)))
        spec = f"walsh:{n}:{m}"
    else:
        spec = f"{kind}:{data.draw(st.integers(min_value=1, max_value=40))}"
    g = builtin_length(spec).group
    chi = g.characters
    assert chi.shape == (g.order, g.order) and not chi.flags.writeable
    assert np.abs(chi[:, g.mul] - chi[:, :, None] * chi[:, None, :]).max() <= 1e-12, spec
    assert np.abs(chi @ chi.conj().T - g.order * np.eye(g.order)).max() <= 1e-10 * g.order, spec


def test_characters_exist_for_products_of_cyclic_groups_only():
    z2, z3 = build_cyclic(2), build_cyclic(3)
    assert z3.metadata["cyclic_radices"] == (3,)
    nested = build_product([build_product([z2, z3]), z2])
    flat = build_product([z2, z3, z2])
    assert nested.metadata["cyclic_radices"] == flat.metadata["cyclic_radices"] == (2, 3, 2)
    assert np.array_equal(nested.characters, flat.characters)
    # on Z_2^3 the table is the Walsh-Hadamard matrix, exactly
    walsh = build_power(2, 3)
    d = coordinates(8, [2] * 3)
    assert np.array_equal(walsh.characters, (-1.0) ** (d.T @ d))
    assert build_cyclic(4).characters[1].tolist() == [1, 1j, -1, -1j]
    for g in (build_heisenberg(2), group_from_dict(group_to_dict(walsh)),
              build_product([build_heisenberg(2), z2]), build_product([z3, build_heisenberg(2)])):
        assert g.characters is None and "cyclic_radices" not in g.metadata
