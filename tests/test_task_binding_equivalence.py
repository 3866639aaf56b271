"""Equivalence suite: TaskDefinition.bind against ``inspect`` (hypothesis).

``TaskDefinition`` binds a call from a plan computed once per definition
(parameter names, defaults, positional count) instead of running
``Signature.bind`` + ``apply_defaults`` on every submission.  For any
signature a task may have (positional-or-keyword and keyword-only
parameters, with or without defaults) and any call shape, the bound
``arguments`` must equal inspect's, in the same order, and a call must
raise ``TypeError`` in exactly the cases where inspect raises.
"""

import inspect
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task_definition import TaskDefinition

P = inspect.Parameter
NAMES = ["a", "b", "c", "d", "e", "f"]


def make_function(positional, positional_defaults, keyword_only):
    """A function whose signature has ``positional`` parameters (the last
    ``positional_defaults`` defaulted) followed by ``keyword_only`` ones,
    each given as a has-default flag."""
    parameters = []
    for index in range(positional):
        default = 100 + index if index >= positional - positional_defaults else P.empty
        parameters.append(P(NAMES[index], P.POSITIONAL_OR_KEYWORD, default=default))
    for offset, has_default in enumerate(keyword_only):
        index = positional + offset
        default = 100 + index if has_default else P.empty
        parameters.append(P(NAMES[index], P.KEYWORD_ONLY, default=default))

    def fn(*args, **kwargs):
        return args, kwargs

    fn.__signature__ = inspect.Signature(parameters)
    return fn


def reference_bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


@st.composite
def signatures(draw):
    positional = draw(st.integers(0, 4))
    positional_defaults = draw(st.integers(0, positional))
    keyword_only = draw(st.lists(st.booleans(), max_size=6 - positional))
    return make_function(positional, positional_defaults, keyword_only)


CALL_NAMES = st.sampled_from(NAMES + ["zz"])
CALLS = st.tuples(
    st.integers(0, 6),
    st.dictionaries(CALL_NAMES, st.integers(0, 99), max_size=5),
)


class TestBindMatchesInspect:
    @settings(max_examples=400, deadline=None)
    @given(fn=signatures(), call=CALLS)
    def test_random_call_shapes(self, fn, call):
        arg_count, kwargs = call
        args = tuple(range(arg_count))
        definition = TaskDefinition(fn)
        try:
            expected = reference_bind(fn, args, kwargs)
        except TypeError:
            with pytest.raises(TypeError):
                definition.bind(args, kwargs)
            return
        bound = definition.bind(args, kwargs)
        assert list(bound.arguments.items()) == list(expected.arguments.items())
        assert bound.args == expected.args
        assert bound.kwargs == expected.kwargs
        assert bound.signature == expected.signature

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((1, 2), {}),  # plain positional
            ((1,), {"b": 2}),  # positional + keyword
            ((), {"b": 2, "a": 1}),  # keywords out of order
            ((1, 2, 3), {}),  # defaulted positional given
            ((1, 2), {"k": 5}),  # keyword-only given
        ],
    )
    def test_common_shapes(self, args, kwargs):
        def fn(a, b, c=3, *, k=4):
            return a

        definition = TaskDefinition(fn)
        expected = reference_bind(fn, args, kwargs)
        # A call that binds never reaches inspect's binder.
        with mock.patch.object(inspect.Signature, "bind", side_effect=AssertionError):
            bound = definition.bind(args, kwargs)
        assert list(bound.arguments.items()) == list(expected.arguments.items())

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((1, 2, 3, 4), {}),  # too many positional
            ((1, 2), {"zz": 0}),  # unknown keyword
            ((1, 2), {"a": 0}),  # duplicate value
            ((1,), {}),  # missing positional
            ((1, 2), {"k": 0}),  # keyword-only m missing
        ],
    )
    def test_malformed_calls_raise_type_error(self, args, kwargs):
        def fn(a, b, c=3, *, k, m):
            return a

        with pytest.raises(TypeError):
            reference_bind(fn, args, kwargs)
        with pytest.raises(TypeError):
            TaskDefinition(fn).bind(args, kwargs)
