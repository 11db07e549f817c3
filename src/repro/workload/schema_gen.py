"""Random schema generation for the synthetic experiments (Section 6).

The paper's experiments run "on a database of 100 relations, each randomly
generated to have between one and six attributes".  The generator below is
seeded so that every experiment cell sees the same schema.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.schema import DatabaseSchema, RelationSchema, generic_attributes


def generate_schema(
    num_relations: int = 100,
    min_arity: int = 1,
    max_arity: int = 6,
    rng: Optional[random.Random] = None,
    name_prefix: str = "R",
) -> DatabaseSchema:
    """Generate ``num_relations`` relations with uniformly random arities."""
    if num_relations < 1:
        raise ValueError("need at least one relation, got {}".format(num_relations))
    if not 1 <= min_arity <= max_arity:
        raise ValueError(
            "invalid arity bounds [{}, {}]".format(min_arity, max_arity)
        )
    rng = rng if rng is not None else random.Random(0)
    relations: List[RelationSchema] = []
    for index in range(num_relations):
        arity = rng.randint(min_arity, max_arity)
        name = "{}{}".format(name_prefix, index + 1)
        relations.append(RelationSchema(name, generic_attributes(arity)))
    return DatabaseSchema.from_relations(relations)


def generate_constant_pool(
    size: int = 50, rng: Optional[random.Random] = None, length: int = 8
) -> List[str]:
    """The paper's "small (size 50) fixed set of random strings".

    Keeping the constant domain small makes joins between relations highly
    likely to be non-empty, so mappings are highly likely to fire.
    """
    rng = rng if rng is not None else random.Random(0)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    pool: List[str] = []
    seen = set()
    while len(pool) < size:
        candidate = "".join(rng.choice(alphabet) for _ in range(length))
        if candidate not in seen:
            seen.add(candidate)
            pool.append(candidate)
    return pool
