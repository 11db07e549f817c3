"""Random mapping (tgd) generation for the synthetic experiments (Section 6).

Each mapping is created "by choosing a random subset of one to three relations
for the LHS and another for the RHS.  Smaller sets have higher probability
[...]  The remaining step in mapping generation is the choice of variables in
the atoms; this is done randomly, with care taken to ensure that the mappings
contain inter-atom joins as well as constants.  Any constants used come from a
small (size 50) fixed set of random strings."

The generator keeps those properties and additionally guarantees that every
mapping exports at least one variable from its LHS to its RHS (a mapping with
an unrelated RHS would degenerate into an unconditional existence constraint),
unless the RHS consists only of constants, which is allowed but rare.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..core.atoms import Atom
from ..core.schema import DatabaseSchema
from ..core.terms import Constant, Variable
from ..core.tgd import MappingSet, Tgd
from .schema_gen import generate_constant_pool

#: Probability weights for choosing 1, 2 or 3 atoms on a side ("smaller sets
#: have higher probability, as humans are highly unlikely to create mappings
#: with more than one or two atoms on either side").
_SIDE_SIZE_WEIGHTS = (0.6, 0.3, 0.1)

#: Probability that an LHS position holds a constant rather than a variable.
_LHS_CONSTANT_PROBABILITY = 0.15

#: Probability that an RHS position holds a constant.
_RHS_CONSTANT_PROBABILITY = 0.1

#: Probability that an RHS variable position reuses an exported LHS variable
#: (otherwise it becomes an existential variable).
_RHS_EXPORT_PROBABILITY = 0.6


def _choose_side_size(rng: random.Random, maximum: int = 3) -> int:
    sizes = list(range(1, maximum + 1))
    weights = _SIDE_SIZE_WEIGHTS[:maximum]
    return rng.choices(sizes, weights=weights, k=1)[0]


def _generate_lhs(
    schema: DatabaseSchema,
    rng: random.Random,
    constant_pool: Sequence[str],
    variable_counter: List[int],
) -> List[Atom]:
    relation_names = schema.relation_names()
    size = _choose_side_size(rng)
    chosen = [rng.choice(relation_names) for _ in range(size)]
    atoms: List[Atom] = []
    available_variables: List[Variable] = []
    for atom_index, relation in enumerate(chosen):
        arity = schema.arity_of(relation)
        terms: List[object] = []
        for position in range(arity):
            reuse_possible = bool(available_variables) and atom_index > 0
            if rng.random() < _LHS_CONSTANT_PROBABILITY:
                terms.append(Constant(rng.choice(list(constant_pool))))
            elif reuse_possible and rng.random() < 0.5:
                # Inter-atom join: reuse a variable from an earlier atom.
                terms.append(rng.choice(available_variables))
            else:
                variable_counter[0] += 1
                variable = Variable("v{}".format(variable_counter[0]))
                available_variables.append(variable)
                terms.append(variable)
        atoms.append(Atom(relation, terms))
    # Guarantee at least one inter-atom join when the LHS has several atoms.
    if len(atoms) > 1:
        first_variables = list(atoms[0].variable_set())
        second = atoms[1]
        if first_variables and not (atoms[0].variable_set() & second.variable_set()):
            position = rng.randrange(second.arity)
            new_terms = list(second.terms)
            new_terms[position] = rng.choice(first_variables)
            atoms[1] = Atom(second.relation, new_terms)
    return atoms


def _generate_rhs(
    schema: DatabaseSchema,
    rng: random.Random,
    constant_pool: Sequence[str],
    lhs_variables: List[Variable],
    variable_counter: List[int],
) -> List[Atom]:
    relation_names = schema.relation_names()
    size = _choose_side_size(rng)
    chosen = [rng.choice(relation_names) for _ in range(size)]
    atoms: List[Atom] = []
    existential_variables: List[Variable] = []
    exported_any = False
    for relation in chosen:
        arity = schema.arity_of(relation)
        terms: List[object] = []
        for position in range(arity):
            roll = rng.random()
            if roll < _RHS_CONSTANT_PROBABILITY:
                terms.append(Constant(rng.choice(list(constant_pool))))
            elif lhs_variables and roll < _RHS_CONSTANT_PROBABILITY + _RHS_EXPORT_PROBABILITY:
                terms.append(rng.choice(lhs_variables))
                exported_any = True
            else:
                if existential_variables and rng.random() < 0.3:
                    # Inter-atom join among RHS atoms through a shared
                    # existential variable.
                    terms.append(rng.choice(existential_variables))
                else:
                    variable_counter[0] += 1
                    variable = Variable("z{}".format(variable_counter[0]))
                    existential_variables.append(variable)
                    terms.append(variable)
        atoms.append(Atom(relation, terms))
    # Guarantee that the mapping exports at least one LHS variable when it can.
    if lhs_variables and not exported_any:
        target = atoms[0]
        position = rng.randrange(target.arity)
        new_terms = list(target.terms)
        new_terms[position] = rng.choice(lhs_variables)
        atoms[0] = Atom(target.relation, new_terms)
    return atoms


def generate_mapping(
    schema: DatabaseSchema,
    rng: random.Random,
    constant_pool: Sequence[str],
    name: str = "sigma",
) -> Tgd:
    """Generate one random mapping over *schema*."""
    variable_counter = [0]
    lhs = _generate_lhs(schema, rng, constant_pool, variable_counter)
    lhs_variables = sorted(
        {variable for atom in lhs for variable in atom.variable_set()},
        key=lambda variable: variable.name,
    )
    rhs = _generate_rhs(schema, rng, constant_pool, lhs_variables, variable_counter)
    return Tgd(lhs, rhs, name=name)


def generate_mappings(
    schema: DatabaseSchema,
    count: int,
    rng: Optional[random.Random] = None,
    constant_pool: Optional[Sequence[str]] = None,
) -> MappingSet:
    """Generate *count* random mappings.

    The experiments use a *monotonically increasing* family of mapping sets:
    the run with 40 mappings contains the 20 mappings of the sparser run plus
    20 more.  Generating the full set once (with a fixed seed) and slicing
    prefixes — see :func:`mapping_prefix` — reproduces that construction.
    """
    rng = rng if rng is not None else random.Random(1)
    pool = list(constant_pool) if constant_pool is not None else generate_constant_pool(rng=rng)
    mappings = MappingSet()
    for index in range(count):
        mappings.add(
            generate_mapping(schema, rng, pool, name="sigma{}".format(index + 1))
        )
    mappings.validate(schema)
    return mappings


def mapping_prefix(mappings: MappingSet, count: int) -> MappingSet:
    """The first *count* mappings of a generated family (monotone subsets)."""
    if count > len(mappings):
        raise ValueError(
            "asked for {} mappings but only {} were generated".format(
                count, len(mappings)
            )
        )
    return MappingSet(list(mappings)[:count])
