"""Index buckets against the ``defaultdict(set)`` they replace.

A bucket is its one member, bare, until a second member arrives
(:mod:`repro.storage.buckets`).  The join probe walks buckets in their own
order, so random add/discard sequences must leave every key with the same
members *in the same iteration order* as a ``defaultdict(set)`` reference
that deletes emptied buckets.  String and ``Tuple`` members hash by the
hash seed, so CI runs this under three of them.
"""

import random
from collections import defaultdict

import pytest

from repro.core.terms import Constant
from repro.core.tuples import Tuple
from repro.storage.buckets import (
    bucket_add,
    bucket_copy,
    bucket_discard,
    bucket_members,
)


def _members(rng, kind):
    if kind == "int":
        return list(range(1, 40))
    if kind == "str":
        return ["m{}".format(index) for index in range(40)]
    return [
        Tuple("R", (Constant("a{}".format(rng.randrange(6))), Constant(str(index))))
        for index in range(40)
    ]


@pytest.mark.parametrize("kind", ["int", "str", "row"])
@pytest.mark.parametrize("seed", range(6))
def test_buckets_iterate_like_a_defaultdict_of_sets(seed, kind):
    rng = random.Random(seed)
    members = _members(rng, kind)
    keys = ["k{}".format(index) for index in range(5)]
    buckets, reference = {}, defaultdict(set)
    for _ in range(3000):
        key = rng.choice(keys)
        # Narrow member pools per key so buckets keep crossing one member.
        member = rng.choice(members[: rng.choice((2, 3, 8, 40))])
        if rng.random() < 0.55:
            added = member not in reference[key]
            reference[key].add(member)
            assert bucket_add(buckets, key, member) == added
        else:
            present = member in reference.get(key, ())
            if present:
                reference[key].discard(member)
                if not reference[key]:
                    del reference[key]
            assert bucket_discard(buckets, key, member) == present
        assert buckets.keys() == reference.keys()
        for name, expected in reference.items():
            assert list(bucket_members(buckets[name])) == list(expected)
            assert bucket_copy(buckets[name]) == tuple(expected)


def test_a_bucket_is_bare_until_its_second_member_and_a_set_until_emptied():
    buckets = {}
    assert bucket_add(buckets, "k", 7)
    assert buckets["k"] == 7
    assert not bucket_add(buckets, "k", 7)
    assert bucket_add(buckets, "k", 9)
    assert buckets["k"] == {7, 9}
    assert bucket_discard(buckets, "k", 7)
    assert buckets["k"] == {9} and type(buckets["k"]) is set
    assert not bucket_discard(buckets, "k", 7)
    assert bucket_discard(buckets, "k", 9)
    assert "k" not in buckets
    assert bucket_members(buckets.get("k")) == set()
    assert bucket_copy(buckets.get("k")) == ()
    bucket_add(buckets, "k", 3)
    assert bucket_discard(buckets, "k", 3) and "k" not in buckets
