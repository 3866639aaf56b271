"""The tuple-backed StreamElement keeps the frozen dataclass's contract.

Every property is checked side by side against the original definition in
``tests/reference/stream_element.py``, on elements built from random
floats, ints, strings and tuples.
"""

import copy
import operator
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import StreamElement
from tests.reference.stream_element import StreamElement as Reference

# NaN is left out: a NaN field makes even an element's own unpickled copy
# unequal to it, for the reference exactly as for the tuple.
_scalars = st.one_of(
    st.floats(allow_nan=False),
    st.integers(),
    st.text(max_size=8),
)
_values = st.one_of(_scalars, st.tuples(_scalars, _scalars), st.tuples())
_fields = st.tuples(
    st.one_of(st.floats(allow_nan=False), st.integers()),
    _values,
    st.text(max_size=8),
)


def _variant(fields):
    """Pairs that are equal, differ in one field, or are unrelated."""
    return st.one_of(
        st.just(fields),
        _fields,
        _values.map(lambda value: (fields[0], value, fields[2])),
        st.text(max_size=8).map(lambda source: (fields[0], fields[1], source)),
    ).map(lambda other: (fields, other))


_pairs = _fields.flatmap(_variant)

_ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


class TestStreamElementContract:
    @settings(max_examples=200, deadline=None)
    @given(_fields)
    def test_construction_positional_keyword_and_default_source(self, fields):
        timestamp, value, source = fields
        built = [
            StreamElement(timestamp, value, source),
            StreamElement(timestamp=timestamp, value=value, source=source),
            StreamElement(timestamp, value=value, source=source),
        ]
        for element in built:
            assert type(element) is StreamElement
            assert (element.timestamp, element.value, element.source) == fields
        default = StreamElement(timestamp, value)
        assert default.source == Reference(timestamp, value).source == ""
        assert default == StreamElement(timestamp=timestamp, value=value)

    @settings(max_examples=300, deadline=None)
    @given(_pairs)
    def test_equality_and_inequality_match_the_reference(self, pair):
        a, b = pair
        expected = Reference(*a) == Reference(*b)
        assert (StreamElement(*a) == StreamElement(*b)) is expected
        assert (StreamElement(*a) != StreamElement(*b)) is (not expected)

    @settings(max_examples=200, deadline=None)
    @given(_fields)
    def test_hash_equals_the_reference(self, fields):
        assert hash(StreamElement(*fields)) == hash(Reference(*fields))

    @settings(max_examples=200, deadline=None)
    @given(_fields)
    def test_never_equal_to_a_plain_tuple_in_either_direction(self, fields):
        element = StreamElement(*fields)
        plain = tuple(fields)
        assert Reference(*fields) != plain
        assert not element == plain
        assert not plain == element
        assert element != plain
        assert plain != element
        assert element not in [plain]
        assert plain not in [element]

    @settings(max_examples=100, deadline=None)
    @given(_pairs)
    def test_ordering_raises_type_error_in_both_directions(self, pair):
        a, b = pair
        operands = [
            (StreamElement(*a), StreamElement(*b)),
            (StreamElement(*a), tuple(b)),
            (tuple(a), StreamElement(*b)),
        ]
        for compare in _ORDERINGS:
            with pytest.raises(TypeError):
                compare(Reference(*a), Reference(*b))
            with pytest.raises(TypeError):
                compare(Reference(*a), tuple(b))
            for left, right in operands:
                with pytest.raises(TypeError):
                    compare(left, right)
        with pytest.raises(TypeError):
            sorted([StreamElement(*a), StreamElement(*b)])

    @settings(max_examples=50, deadline=None)
    @given(_fields, _values)
    def test_assignment_and_deletion_raise_frozen_instance_error(
        self, fields, new
    ):
        for element in (StreamElement(*fields), Reference(*fields)):
            for name in ("timestamp", "value", "source", "extra"):
                with pytest.raises(FrozenInstanceError):
                    setattr(element, name, new)
                with pytest.raises(FrozenInstanceError):
                    delattr(element, name)
        assert FrozenInstanceError.__mro__[1] is AttributeError

    @settings(max_examples=200, deadline=None)
    @given(_fields)
    def test_repr_identical(self, fields):
        assert repr(StreamElement(*fields)) == repr(Reference(*fields))
        assert repr(StreamElement(fields[0], fields[1])) == repr(
            Reference(fields[0], fields[1])
        )

    @settings(max_examples=100, deadline=None)
    @given(_fields)
    def test_pickle_and_deepcopy_round_trip(self, fields):
        element = StreamElement(*fields)
        copies = [
            pickle.loads(pickle.dumps(element, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies.append(copy.deepcopy(element))
        copies.append(copy.copy(element))
        for restored in copies:
            assert type(restored) is StreamElement
            assert restored == element
            assert hash(restored) == hash(element)
            assert repr(restored) == repr(element)

    def test_tuple_protocol_is_available(self):
        # New with the tuple backing, and relied on by nothing: three
        # items in field order.
        element = StreamElement(1.5, "v", "s")
        assert len(element) == 3
        assert list(element) == [1.5, "v", "s"]
        assert element[0] == element.timestamp
