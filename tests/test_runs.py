"""The run map against a dict from index to item: random sequences of put,
take, drain (a take widened to the whole map), restate, cut and overlap over
small ranges, empty and inverted ones included, must agree with the dict
after every step, and the map must stay sorted, free of empty and
overlapping runs, and joined wherever alike items meet.  A take of the whole
map and a put into an empty one must not bisect: they are what a one-member
transaction costs the chain, and each has an early exit."""

from bisect import bisect_left
from collections import Counter
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from htlcrace import runs

INDEX = st.integers(-2, 14)
OPS = st.lists(st.tuples(st.sampled_from(("put", "take", "drain", "restate", "cut", "overlap")),
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


def test_run_map_matches_a_dict():
    bisects = Counter()
    exits = Counter()

    def counted(*args, **kwargs):
        bisects["calls"] += 1
        return bisect_left(*args, **kwargs)

    @settings(max_examples=400, deadline=None)
    @given(OPS)
    def run(ops):
        rs, model = [], {}
        for op, lo, hi, x in ops:
            before = bisects["calls"]
            if op == "put":
                if any(lo <= i < hi for i in model):
                    continue  # put only writes indices the map does not hold
                runs.put(rs, lo, hi, x)
                if lo < hi and not model:
                    assert bisects["calls"] == before, "put into an empty map bisected"
                    exits["put:empty"] += 1
                model.update(dict.fromkeys(range(lo, hi), x))
            elif op in ("take", "drain"):
                if op == "drain" and rs:  # widened to take the whole map
                    lo, hi = min(lo, rs[0][0]), max(hi, rs[-1][1])
                want = clipped(rs, lo, hi)
                assert runs.take(rs, lo, hi) == want
                if lo < hi and model and all(lo <= i < hi for i in model):
                    assert bisects["calls"] == before, "take of the whole map bisected"
                    exits["take:whole"] += 1
                    exits["take:whole-at-an-edge"] += lo == min(model) or hi == max(model) + 1
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

    with patch.object(runs, "bisect_left", counted):
        run()
    for path, least in {"put:empty": 40, "take:whole": 15,
                        "take:whole-at-an-edge": 10}.items():
        assert exits[path] >= least, (path, exits)
