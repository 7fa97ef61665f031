"""Generator choice by Permutation closures: the oracle for Subgroup.as_group.

`Subgroup.as_group` picks its generators by growing closures on its
multiplication table.  This is the scan it replaced, kept as an independent
oracle: it closes each candidate generating set with Python `Permutation`
products and never reads a table.
"""

from __future__ import annotations


def closure_images(identity, gens) -> set[tuple[int, ...]]:
    """Images of every word in gens, grown breadth first from the identity."""
    frontier = [identity]
    seen = {identity.images}
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y.images not in seen:
                    seen.add(y.images)
                    nxt.append(y)
        frontier = nxt
    return seen


def greedy_generators(elements) -> tuple[int, ...]:
    """Small generating set: scan elements, keep those enlarging the closure."""
    chosen: list[int] = []
    closure = {elements[0].images}
    for i, e in enumerate(elements[1:], start=1):
        if e.images in closure:
            continue
        chosen.append(i)
        closure = closure_images(elements[0], [elements[j] for j in chosen])
        if len(closure) == len(elements):
            break
    return tuple(chosen) if chosen else (0,)
