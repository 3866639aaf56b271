"""The stream channel: timestamped elements plus subscriptions.

Two properties make this the dataflow plane's hot path viable at
production rates:

* **Batched publication** — :meth:`DataStream.publish_batch` appends a whole
  emission batch and notifies batch subscribers once, so the per-element
  cost is a list append plus a share of one callback, not a callback each.
* **Watermark pruning** — :meth:`DataStream.prune_upto` discards the
  consumed prefix (everything below the consumers' watermark), so retained
  memory is bounded by in-flight windows instead of campaign length.
  ``since()`` stays correct on the retained suffix (it bisects exactly as
  before) and refuses queries that reach into the pruned region rather
  than silently returning a truncated answer.
"""

from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError
from operator import itemgetter, le
from typing import Any, Callable, List, Sequence

# StreamElement's layout, in constructor order: C-level field getters that
# the properties below and the batch-wide readers in dataflow.py share.
_timestamp = itemgetter(0)
_value = itemgetter(1)
_source = itemgetter(2)


class StreamElement(tuple):
    """One element on a stream: an immutable ``(timestamp, value, source)``.

    A ``tuple`` subclass, so building one is a single C-level tuple
    allocation and reading a field is a C-level item fetch.  It keeps the
    contract of the frozen dataclass it replaced:

    * equality is class-strict — two elements are equal exactly when their
      fields are, and an element never equals a plain tuple holding the
      same fields (in either direction);
    * ``hash`` is ``hash((timestamp, value, source))``;
    * ordering (``<``, ``<=``, ``>``, ``>=``) raises ``TypeError``;
    * assigning or deleting any attribute raises
      :class:`dataclasses.FrozenInstanceError`;
    * ``repr`` is ``StreamElement(timestamp=…, value=…, source=…)``;
    * it pickles and deep-copies at every protocol.

    Being a tuple, ``len``, iteration and indexing also work (three items,
    in field order); nothing relies on them failing.
    """

    __slots__ = ()
    __match_args__ = ("timestamp", "value", "source")

    def __new__(cls, timestamp: float, value: Any, source: str = ""):
        return tuple.__new__(cls, (timestamp, value, source))

    timestamp = property(_timestamp, doc="Virtual time of the reading.")
    value = property(_value, doc="The payload.")
    source = property(_source, doc="Identity of the emitter.")

    def __getnewargs__(self):
        return tuple(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # A plain tuple would answer True through the reflected
        # tuple.__eq__, so refuse it here instead of deferring.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(
            "ordering is not supported between instances of "
            f"{type(self).__name__!r} and {type(other).__name__!r}"
        )

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(timestamp={self[0]!r}, "
            f"value={self[1]!r}, source={self[2]!r})"
        )


class DataStream:
    """An append-only channel; subscribers see elements as they arrive.

    Publication happens in virtual time (whoever calls ``publish`` does so
    from a simulation event); subscribers are synchronous callbacks, which
    is all the DES needs — any delay they model is scheduled by themselves.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._elements: List[StreamElement] = []
        # Parallel timestamp list: publish() enforces monotonicity, so
        # ``since`` can bisect instead of scanning the whole history (the
        # scan made every window close O(campaign) on long streams).
        self._timestamps: List[float] = []
        self._subscribers: List[Callable[[StreamElement], None]] = []
        self._batch_subscribers: List[Callable[[Sequence[StreamElement]], None]] = []
        self._closed = False
        # Watermark-pruning bookkeeping: elements with timestamp < the
        # watermark may have been discarded; ``_pruned`` counts them.
        self._pruned = 0
        self._watermark = float("-inf")
        # High-water mark of the retained suffix: the memory-boundedness
        # figure benchmark asserts ride on (flat across campaign lengths
        # when consumers prune as they go).
        self.max_retained = 0

    def __len__(self) -> int:
        """Retained element count (equals total published until pruning)."""
        return len(self._elements)

    @property
    def elements(self) -> List[StreamElement]:
        """The retained suffix (everything, until :meth:`prune_upto` runs)."""
        return list(self._elements)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def total_published(self) -> int:
        """Lifetime element count, pruned prefix included."""
        return self._pruned + len(self._elements)

    @property
    def pruned_count(self) -> int:
        return self._pruned

    @property
    def watermark(self) -> float:
        """Largest prune boundary so far (−inf before any pruning)."""
        return self._watermark

    # ------------------------------------------------------------- publish

    def publish(self, element: StreamElement) -> None:
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        if self._timestamps and element.timestamp < self._timestamps[-1]:
            raise ValueError(
                f"stream {self.name!r}: element timestamp {element.timestamp} "
                f"precedes the last published {self._timestamps[-1]}"
            )
        self._elements.append(element)
        self._timestamps.append(element.timestamp)
        if len(self._elements) > self.max_retained:
            self.max_retained = len(self._elements)
        for subscriber in self._subscribers:
            subscriber(element)
        if self._batch_subscribers:
            batch = (element,)
            for subscriber in self._batch_subscribers:
                subscriber(batch)

    def publish_batch(self, elements: Sequence[StreamElement]) -> None:
        """Append a timestamp-ordered batch; one notification per batch.

        The batch must be internally monotone and start no earlier than the
        last published element — the same invariant ``publish`` enforces,
        checked with one C-level pass of float compares over the batch.
        """
        if not elements:
            return
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        timestamps = self._timestamps
        previous = timestamps[-1] if timestamps else float("-inf")
        stamps = list(map(_timestamp, elements))
        if not all(map(le, [previous, *stamps], stamps)):
            # Out of order, or a NaN that compares false: walk the batch
            # to name the offending element (NaN passes, as it always has).
            for timestamp in stamps:
                if timestamp < previous:
                    raise ValueError(
                        f"stream {self.name!r}: element timestamp "
                        f"{timestamp} precedes {previous}"
                    )
                previous = timestamp
        self._elements.extend(elements)
        timestamps.extend(stamps)
        if len(self._elements) > self.max_retained:
            self.max_retained = len(self._elements)
        if self._subscribers:
            for subscriber in self._subscribers:
                for element in elements:
                    subscriber(element)
        for subscriber in self._batch_subscribers:
            subscriber(elements)

    # ----------------------------------------------------------- subscribe

    def subscribe(self, callback: Callable[[StreamElement], None]) -> None:
        self._subscribers.append(callback)

    def subscribe_batch(
        self, callback: Callable[[Sequence[StreamElement]], None]
    ) -> None:
        """Receive whole emission batches (one call per publish_batch)."""
        self._batch_subscribers.append(callback)

    def close(self) -> None:
        """No further elements; processors flush pending windows."""
        self._closed = True

    # ------------------------------------------------------------- queries

    def since(self, timestamp: float) -> List[StreamElement]:
        """Elements with timestamp >= the given instant (bisected suffix).

        Correct on a pruned stream for any ``timestamp >= watermark`` —
        pruning only ever discards elements strictly below the watermark.
        Queries reaching into the pruned region raise instead of silently
        missing elements.
        """
        if self._pruned and timestamp < self._watermark:
            raise ValueError(
                f"stream {self.name!r}: since({timestamp}) reaches below the "
                f"prune watermark {self._watermark} ({self._pruned} elements "
                "already discarded)"
            )
        start = bisect.bisect_left(self._timestamps, timestamp)
        return self._elements[start:]

    def prune_upto(self, timestamp: float) -> int:
        """Discard elements with timestamp < ``timestamp``; returns count.

        Consumers call this as their watermark advances (all windows below
        it closed and handed off), keeping retained memory proportional to
        the in-flight window span.
        """
        index = bisect.bisect_left(self._timestamps, timestamp)
        if index:
            del self._elements[:index]
            del self._timestamps[:index]
            self._pruned += index
        if timestamp > self._watermark:
            self._watermark = timestamp
        return index
