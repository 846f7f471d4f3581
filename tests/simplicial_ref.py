"""``ex_poset`` and ``sd_maps_into_poset`` as they were before both moved onto
the index/up-set kernel, ``simplicial._monotone``, kept as test references.

Each grows one dict per candidate family and asks ``poset.leq`` once per
relation, so they share no code with ``_monotone``: ``ref_ex_poset`` imposes
the covering relations I < J, |I| = |J| - 1, and ``ref_sd_maps_into_poset``
every strict relation of ``sd_ordinal(n)``.  Both list the families in the
kernel's order.
"""

from tatekit.simplicial import nonempty_subsets, sd_ordinal


def ref_ex_poset(poset, n):
    subsets = nonempty_subsets(n)
    preds = {
        J: [I for I in subsets if I < J and len(I) == len(J) - 1] for J in subsets
    }
    families = [{}]
    for J in subsets:
        nxt = []
        for fam in families:
            for x in poset.elements:
                if all(poset.leq(fam[I], x) for I in preds[J]):
                    g = dict(fam)
                    g[J] = x
                    nxt.append(g)
        families = nxt
    return families


def ref_sd_maps_into_poset(poset, n):
    sd = sd_ordinal(n)
    subsets = sd.elements
    out = [{}]
    for J in subsets:
        nxt = []
        below = [I for I in subsets if sd.lt(I, J)]
        for fam in out:
            for x in poset.elements:
                if all(poset.leq(fam[I], x) for I in below if I in fam):
                    g = dict(fam)
                    g[J] = x
                    nxt.append(g)
        out = nxt
    return out
