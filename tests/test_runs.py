"""The run map against a dict from index to item: random sequences of put,
take, restate, cut and overlap over small ranges, empty and inverted ones
included, must agree with the dict after every step, and the map must stay
sorted, free of empty and overlapping runs, and joined wherever alike items
meet."""

from hypothesis import given, settings
from hypothesis import strategies as st

from htlcrace import runs

INDEX = st.integers(-2, 14)
OPS = st.lists(st.tuples(st.sampled_from(("put", "take", "restate", "cut", "overlap")),
                         INDEX, INDEX, st.integers(0, 2)), max_size=40)


def expand(rs):
    return {i: x for a, b, x in rs for i in range(a, b)}


def check(rs, model, joined=True):
    assert all(a < b for a, b, _ in rs)
    assert all(b1 <= a2 for (_, b1, _), (a2, _, _) in zip(rs, rs[1:]))
    if joined:
        assert not any(b1 == a2 and x1 == x2
                       for (_, b1, x1), (a2, _, x2) in zip(rs, rs[1:]))
    assert expand(rs) == model


def clipped(rs, lo, hi):
    """The runs of `rs` meeting lo .. hi - 1, cut to it."""
    return [(max(a, lo), min(b, hi), x) for a, b, x in rs if max(a, lo) < min(b, hi)]


@settings(max_examples=400, deadline=None)
@given(OPS)
def test_run_map_matches_a_dict(ops):
    rs, model = [], {}
    for op, lo, hi, x in ops:
        if op == "put":
            if any(lo <= i < hi for i in model):
                continue  # put only writes indices the map does not hold
            runs.put(rs, lo, hi, x)
            model.update(dict.fromkeys(range(lo, hi), x))
        elif op == "take":
            want = clipped(rs, lo, hi)
            assert runs.take(rs, lo, hi) == want
            for i in range(lo, hi):
                model.pop(i, None)
        elif op == "restate":
            runs.restate(rs, lo, hi, lambda item: (item + x) % 3)
            for i in range(lo, hi):
                if i in model:
                    model[i] = (model[i] + x) % 3
        elif op == "cut":  # on a copy: a cut leaves alike runs meeting
            split = list(rs)
            k = runs.cut(split, lo)
            check(split, model, joined=False)
            assert all(b <= lo for _, b, _ in split[:k])
            assert all(a >= lo for a, _, _ in split[k:])
            assert len(split) - len(rs) == any(a < lo < b for a, b, _ in rs)
        else:
            got = runs.overlap(rs, lo, hi)
            assert got == clipped(rs, lo, hi)
            assert expand(got) == {i: x for i, x in model.items() if lo <= i < hi}
        check(rs, model)
