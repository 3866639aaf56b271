"""DeterministicRandom.random is the generator's own bound draw.

Sensors draw twice per reading, so ``random()`` is bound straight to the
underlying ``random.Random`` method.  These tests pin what that must not
change: the draw sequence (interleaved with every helper), and that a
deep copy or a pickle round trip gets a generator of its own — a bound
builtin method is atomic to ``copy.deepcopy``, so a naive copy would keep
drawing from the original's generator.
"""

import copy
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import DeterministicRandom

_steps = st.lists(
    st.sampled_from(["random", "uniform", "choice", "shuffle"]), max_size=40
)


def _draw(rng, step):
    """One step on a DeterministicRandom or a plain random.Random."""
    if step == "random":
        return rng.random()
    if step == "uniform":
        return rng.uniform(-2.0, 3.0)
    if step == "choice":
        return rng.choice("abcdefg")
    items = list(range(9))
    rng.shuffle(items)
    return items


class TestBoundDraw:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), _steps)
    def test_sequence_matches_random_random(self, seed, steps):
        ours = DeterministicRandom(seed=seed)
        plain = random.Random(seed)
        assert [_draw(ours, s) for s in steps] == [_draw(plain, s) for s in steps]
        assert ours.random() == plain.random()

    def test_random_is_the_generators_bound_method(self):
        rng = DeterministicRandom(seed=3)
        assert rng.random.__self__ is rng._rng

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        _steps,
        st.sampled_from(
            ["deepcopy"]
            + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        ),
    )
    def test_copies_continue_identically_and_independently(
        self, seed, warmup, how
    ):
        original = DeterministicRandom(seed=seed, name="sensor")
        for step in warmup:
            _draw(original, step)
        if how == "deepcopy":
            clone = copy.deepcopy(original)
        else:
            clone = pickle.loads(pickle.dumps(original, int(how.split("-")[1])))
        assert (clone.seed, clone.name) == (original.seed, original.name)
        assert clone.random.__self__ is clone._rng
        # Drawing from the copy must not advance the original...
        from_clone = [clone.random() for _ in range(5)]
        from_original = [original.random() for _ in range(5)]
        # ...so both continue the same sequence from the copy point.
        assert from_clone == from_original
        assert clone.uniform(0.0, 1.0) == original.uniform(0.0, 1.0)
