import pytest

from conftest import random_graph, random_standard_form
from mmlab import catalog, serialize
from mmlab.errors import MalformedInput, TooLarge
from mmlab.fields import GF2
from mmlab.isotropic import from_graph
from mmlab.multimatroids import dual_pair, same_rank_oracle
from mmlab.polynomials import Polynomial


def test_mm_round_trip_fixtures():
    for name in catalog.FIXTURE_NAMES:
        z = catalog.fixture(name)
        again = serialize.mm_from_dict(serialize.mm_to_dict(z))
        assert same_rank_oracle(z, again), name


def test_mm_round_trip_random(rng):
    for _ in range(10):
        if rng.random() < 0.5:
            z = from_graph(random_graph(rng, 3, loops=True), validate=False).multimatroid
        else:
            z = dual_pair(random_standard_form(rng, GF2, rng.randint(1, 4)))
        again = serialize.mm_from_dict(serialize.mm_to_dict(z))
        assert same_rank_oracle(z, again)
        # a circuits-kind dump of the same structure reloads equivalently
        d = serialize.mm_to_dict(z)
        circ = {"order": z.order, "class_sizes": list(z.carrier.class_sizes),
                "kind": "circuits",
                "circuits": [[[c, s] for (c, s) in sorted(circ)]
                             for circ in z.circuits()]}
        assert same_rank_oracle(z, serialize.mm_from_dict(circ))
        assert d["order"] == z.order


PAST_ITS_CLASS = {"class_sizes": [2], "kind": "circuits", "circuits": [[[0, 7]]]}


@pytest.mark.parametrize("bad", [
    {},
    {"class_sizes": [2], "kind": "nope"},
    {"class_sizes": [2], "kind": "circuits"},
    {"class_sizes": [2], "kind": "sheltered", "matrix": {"field": 2, "rows": 0,
                                                         "cols": 0, "entries": []}},
    {"order": 3, "class_sizes": [2], "kind": "circuits", "circuits": []},
    {"class_sizes": [2], "kind": "circuits", "circuits": [[[0, "a"]]]},
    # the constructors' shape errors: a repeated column label, a column
    # outside the carrier, a circuit element outside it, a circuit with
    # two elements of one class
    {"class_sizes": [2], "kind": "sheltered", "columns": [[0, 0], [0, 0]],
     "matrix": {"field": 2, "rows": 1, "cols": 2, "entries": [["1", "0"]]}},
    {"class_sizes": [2], "kind": "sheltered", "columns": [[0, 0], [0, 5]],
     "matrix": {"field": 2, "rows": 1, "cols": 2, "entries": [["1", "0"]]}},
    PAST_ITS_CLASS,
    {"class_sizes": [2], "kind": "circuits", "circuits": [[[0, 0], [0, 1]]]},
])
def test_mm_from_dict_rejects_malformed(bad):
    # an element past its class, which has no label, is named in the file's
    # own form
    match = r"^\[0, 7\] is not a carrier element$" if bad is PAST_ITS_CLASS else None
    with pytest.raises(MalformedInput, match=match):
        serialize.mm_from_dict(bad)


def test_matrix_dict_round_trip():
    m = catalog.fixture_h33().matrix
    again = serialize.matrix_from_dict(serialize.matrix_to_dict(m))
    assert again == m
    with pytest.raises(MalformedInput):
        serialize.matrix_from_dict({"field": 3, "rows": 0, "cols": 0,
                                    "entries": []})


def test_poly_dict_and_fraction_strings():
    from fractions import Fraction
    assert serialize.poly_to_dict(Polynomial((1, -2, 0, 3))) == \
        {"var": "y", "coeffs": ["1", "-2", "0", "3"]}
    assert serialize.fraction_str(Fraction(-6, 4)) == "-3/2"
    assert serialize.fraction_str(Fraction(8, 4)) == "2"


def test_max_order_env_rejects_garbage(monkeypatch):
    from mmlab.bounds import order_limit
    monkeypatch.setenv("MMLAB_MAX_ORDER", "many")
    with pytest.raises(TooLarge):
        order_limit(8)
    monkeypatch.setenv("MMLAB_MAX_ORDER", "")
    assert order_limit(8) == 8
    monkeypatch.setenv("MMLAB_MAX_ORDER", "11")
    assert order_limit(8) == 11
