"""Equivalence suite: TaskMemoizer against a naive list-based LRU (hypothesis).

The memoizer keeps recency in an ``OrderedDict`` (``move_to_end`` on a hit,
``popitem(last=False)`` on eviction).  The reference below keeps a plain
list, oldest first, and re-implements the documented policy in the most
obvious way.  Over random ``lookup`` / ``store`` / re-``store`` sequences,
under entry and byte budgets, both must agree on every lookup result, on
hits, misses, skips and evictions, on ``total_bytes``, and on the surviving
keys in recency order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.intelligence.memoization import TaskMemoizer


class ListLRU:
    """The LRU policy, spelled out over a list of [key, value, size]."""

    def __init__(self, max_entries, max_bytes):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.entries = []
        self.hits = self.misses = self.skipped = self.evictions = 0

    def _index(self, key):
        for index, entry in enumerate(self.entries):
            if entry[0] == key:
                return index
        return None

    @property
    def total_bytes(self):
        return sum(size for _key, _value, size in self.entries)

    def lookup(self, key):
        if key is None:
            self.skipped += 1
            return False, None
        index = self._index(key)
        if index is None:
            self.misses += 1
            return False, None
        entry = self.entries.pop(index)
        self.entries.append(entry)
        self.hits += 1
        return True, entry[1]

    def store(self, key, value, size):
        if key is None:
            return
        index = self._index(key)
        if index is not None:
            del self.entries[index]
        self.entries.append([key, value, size])
        while len(self.entries) > self.max_entries or (
            self.max_bytes is not None
            and self.total_bytes > self.max_bytes
            and len(self.entries) > 1
        ):
            self.entries.pop(0)
            self.evictions += 1

    def keys(self):
        return [key for key, _value, _size in self.entries]


KEYS = st.one_of(st.none(), st.sampled_from([f"k{i}" for i in range(12)]))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), KEYS),
        st.tuples(st.just("store"), KEYS, st.integers(0, 10_000), st.integers(1, 400)),
    ),
    max_size=120,
)


def assert_same_state(memo, reference):
    assert list(memo._cache) == reference.keys()
    assert len(memo) == len(reference.entries)
    assert memo.total_bytes == reference.total_bytes
    stats = memo.stats()
    assert (stats["hits"], stats["misses"], stats["skipped"], stats["evictions"]) == (
        reference.hits,
        reference.misses,
        reference.skipped,
        reference.evictions,
    )


class TestMemoizerMatchesListLRU:
    @settings(max_examples=200, deadline=None)
    # An oversized value evicts every other entry and still survives.
    @example(
        ops=[("store", "k0", 1, 20), ("store", "k1", 2, 30), ("store", "k2", 3, 900)],
        max_entries=8,
        max_bytes=60,
    )
    @given(
        ops=OPS,
        max_entries=st.integers(1, 8),
        max_bytes=st.one_of(st.none(), st.integers(1, 1_000)),
    )
    def test_random_sequences(self, ops, max_entries, max_bytes):
        memo = TaskMemoizer(max_entries=max_entries, max_bytes=max_bytes)
        reference = ListLRU(max_entries, max_bytes)
        for op in ops:
            if op[0] == "lookup":
                assert memo.lookup(op[1]) == reference.lookup(op[1])
            else:
                _name, key, value, size = op
                memo.store(key, value, size_bytes=size)
                reference.store(key, value, size)
                if key is not None:
                    # The newest entry always survives, oversized or not.
                    assert memo.key_stats(key) == {"hits": 0, "size_bytes": size}
                    assert list(memo._cache)[-1] == key
            assert_same_state(memo, reference)
