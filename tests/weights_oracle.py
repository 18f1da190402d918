"""The weights of a 1-PS on each family's V, written out coordinate by
coordinate: the oracle for `negative_weight_dim`.

The package reads m off the Hom blocks a family declares in
`representation`.  These formulas list the (weight, multiplicity) pairs
from the shape of a point instead, one family at a time, and assume a
1-PS that fits the family's group.
"""

from typing import Iterator

from git_topo.groups import OnePSClass


def control_weights(fam, lam: OnePSClass) -> Iterator[tuple[int, int]]:
    """A entry (i, j) carries w_i - w_j and B entry (i, j) carries w_i;
    equal weights are grouped."""
    (w,) = lam.gl_weights
    counts = [(wi, w.count(wi)) for wi in set(w)]
    for wi, ci in counts:
        for wj, cj in counts:
            yield wi - wj, ci * cj
        yield wi, ci * fam.m


def dag_weights(fam, lam: OnePSClass) -> Iterator[tuple[int, int]]:
    """On the n rows of Y a parent column carries its GL weight, the child
    minus the torus weight."""
    (w,) = lam.gl_weights
    for wc in w:
        yield wc, fam.n
    yield -lam.torus_weights[0], fam.n


def quiver_representative(spec, sub) -> OnePSClass:
    """The 1-PS fixing a subrepresentation of dimension d', by the checking
    constructor: at each positive vertex the first d'_i basis slots (the
    subspace) get weight 0 and the rest -1, so the arrows from the
    subrepresentation into the quotient carry exactly the negative weights."""
    return OnePSClass(
        [[0] * k + [-1] * (d - k) for k, d in zip(sub, spec.dim_vector) if d],
        [],
    )


def quiver_weights(spec, lam: OnePSClass) -> Iterator[tuple[int, int]]:
    """An arrow coordinate from basis slot q at the source to slot p at the
    target carries w_target[p] - w_source[q]; a vertex of dimension 0 has
    no GL factor and no coordinates."""
    positive = [v for v, d in enumerate(spec.dim_vector) if d >= 1]
    per_vertex: list[tuple[int, ...]] = [()] * spec.vertex_count
    for vertex, ws in zip(positive, lam.gl_weights):
        per_vertex[vertex] = ws
    for s, t in spec.arrows:
        for wp in per_vertex[t]:
            for wq in per_vertex[s]:
                yield wp - wq, 1


WEIGHTS = {"control": control_weights, "dag": dag_weights, "quiver": quiver_weights}


def oracle_negative_weight_dim(spec, lam: OnePSClass) -> int:
    """m: the multiplicities of the strictly negative weights."""
    return sum(mult for weight, mult in WEIGHTS[spec.name](spec, lam) if weight < 0)
