"""Index buckets: the members filed under one key, held bare while there is one.

Every secondary index of the in-memory stores maps a key to the members
filed under it: :class:`~repro.storage.index.PositionIndex` files rows, and
the multiversion store's content, value and null indexes file tuple
identities (tids).  Most keys hold a single member, and a one-member ``set``
costs 216 bytes and a collector-tracked object.  So a bucket is

* absent while it has no member (``buckets.get(key)`` is ``None``),
* its member itself, bare, until a second member arrives, and
* a ``set`` from then on, until it is emptied.

Members are never sets (rows and tids), so ``type(bucket) is set`` tells
the two forms apart; the stores' probes make that test inline, so reading a
bucket builds no container.  :func:`bucket_members` gives either form as a
set, and :func:`bucket_copy` as a tuple its caller owns.

Iteration order is that of a bucket kept as a ``set`` from its first
member (what these indexes held before) with the same history, under any
hash seed, because the join probe walks buckets in their own order:

* the second member builds ``{first, second}``, the set two ``add`` calls
  on a fresh set leave;
* a set is never demoted back to a bare member, because its deleted slots
  shape where later members land;
* an emptied bucket is deleted.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Tuple

#: What a bucket of no members reads as.
_NO_MEMBERS: AbstractSet = frozenset()


def bucket_add(buckets: Dict[Hashable, object], key: Hashable, member: object) -> bool:
    """File *member* under *key*; return whether it was not there yet."""
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = member
        return True
    if type(bucket) is set:
        if member in bucket:
            return False
        bucket.add(member)
        return True
    if bucket is member or bucket == member:
        return False
    buckets[key] = {bucket, member}
    return True


def bucket_discard(
    buckets: Dict[Hashable, object], key: Hashable, member: object
) -> bool:
    """Take *member* out of *key*'s bucket; return whether it was there."""
    bucket = buckets.get(key)
    if bucket is None:
        return False
    if type(bucket) is set:
        if member not in bucket:
            return False
        bucket.remove(member)
        if not bucket:
            del buckets[key]
        return True
    if bucket is member or bucket == member:
        del buckets[key]
        return True
    return False


def bucket_copy(bucket: object) -> Tuple:
    """*bucket*'s members as a tuple, in its order: safe to hold across writes."""
    if type(bucket) is set:
        return tuple(bucket)
    return () if bucket is None else (bucket,)


def bucket_members(bucket: object) -> AbstractSet:
    """*bucket*'s members as a set (the live one if it has several)."""
    if bucket is None:
        return _NO_MEMBERS
    if type(bucket) is set:
        return bucket
    return frozenset((bucket,))
