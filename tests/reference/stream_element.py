"""The frozen-dataclass ``StreamElement``, kept as the contract reference.

:class:`repro.streams.StreamElement` is a tuple subclass built for cheap
construction; ``tests/test_stream_element_contract.py`` checks that it
keeps every observable property of this original definition: equality,
hashing, refused ordering, immutability, ``repr`` and pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class StreamElement:
    """One element on a stream."""

    timestamp: float
    value: Any
    source: str = ""
