"""Every output is a function of the ids: an instance declared in another
order, its sides reversed or shuffled, gets the same answers, by id and
in the same order, certificates and listings included.

The cases are `reversed_declaration_cases`, each compared with its
instance declared in id order, and small random instances, each declared
as generated, reversed and shuffled and asked about the same matchings.
"""

import random

from popmatch import (
    Instance, exists_unstable_popular, generate_random, is_dominant, is_popular, is_stable,
    partition, run, stable_matchings,
)
from popmatch.popular_edge import NotDominantError, NotPopularError, decompose, inverse_map
from conftest import random_matching, reversed_declaration_cases


def named(matching):
    """A returned matching by id: its pairs, and each man's level."""
    return matching.sorted_pairs(), sorted(matching.level.items())


def instance_answers(inst):
    """What the library says of the instance alone."""
    unstable = exists_unstable_popular(inst)
    return (
        [named(run(inst, levels=levels)) for levels in (1, 2)],
        unstable and (named(unstable[0]), unstable[1]),
        [named(m) for m in stable_matchings(inst, levels=2)],
    )


def matching_answers(inst, matching):
    """What the library says of one matching of the instance."""
    got = [is_stable(inst, matching), is_popular(inst, matching), is_dominant(inst, matching)]
    got += [partition(inst, matching, seed) for seed in (False, True)]
    try:
        dec = decompose(inst, matching)
        got.append((named(dec.m0), named(dec.m1), dec.partition, dec.y, dec.z))
    except NotPopularError as exc:
        got.append(exc.certificate)
    try:
        got.append(named(inverse_map(inst, matching)))
    except NotDominantError as exc:
        got.append(exc.certificate)
    return got


def by_id(inst):
    return Instance(sorted(inst.men), sorted(inst.women), inst.pref)


def test_reversed_declarations_answer_as_declared_in_id_order():
    ordered = {}
    for inst, matching in reversed_declaration_cases():
        if inst not in ordered:
            ordered[inst] = by_id(inst)
            assert instance_answers(inst) == instance_answers(ordered[inst])
        got = [matching_answers(i, matching) for i in (inst, ordered[inst])]
        assert got[0] == got[1]


def test_random_declarations_answer_alike():
    rng = random.Random(11)
    for seed in range(300):
        base = generate_random(2 + seed % 5, 2 + seed // 5 % 6, (0.4, 0.6, 0.9)[seed % 3], seed)
        declared = [
            base,
            Instance(base.men[::-1], base.women[::-1], base.pref),
            Instance(
                rng.sample(base.men, len(base.men)),
                rng.sample(base.women, len(base.women)),
                base.pref,
            ),
        ]
        matchings = [run(base), run(base, levels=2)]
        matchings += [random_matching(base, rng) for _ in range(3)]
        got = [
            (instance_answers(inst), [matching_answers(inst, m) for m in matchings])
            for inst in declared
        ]
        assert got[0] == got[1] == got[2], seed
