"""Every protocol record behaves as the frozen dataclass it replaces.

``repro.sim.messages.record`` declares a message (and ``Interval``,
``Send``) as a frozen, slotted dataclass whose ``__init__`` stores each
field through its slot.  Only construction may get cheaper; what a
record *is* must not move, because messages are hashed, compared,
sorted, pickled across processes, copied by ``dataclasses.replace``
and bit-flipped by ``corrupt_message``.  So each record found by
importing all of ``repro`` is held to a plain ``@dataclass(frozen=True)``
twin built here from the same fields, over Hypothesis values:

- no instance ``__dict__``; ``FrozenInstanceError`` on any assignment
  or deletion;
- eq, hash, order and repr agree with the twin's, and construction
  fails where the twin's does (``Interval(5, 1)``, ``Send(-1, m)``);
- ``fields`` / ``replace`` / ``corrupt_message``, a pickle round trip
  and keyword construction give what they give on the twin;
- ``fixed_width`` is what the ``class`` statement declares;
- ``Message.__subclasses__()`` lists each record once, slotted -- no
  twin left from before the slots -- and no ``Message`` subclass in
  ``src/`` is declared with a plain ``@dataclass``.
"""

import ast
import dataclasses
import importlib
import pickle
import pkgutil
import typing
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.core.intervals import Interval
from repro.faults.base import corrupt_message
from repro.sim.messages import Message, Send

SRC = Path(repro.__file__).parent


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _records():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    messages = [cls for cls in _subclasses(Message)
                if cls.__module__.startswith("repro.")]
    return sorted(messages, key=lambda cls: cls.__qualname__) + [Interval,
                                                                 Send]


RECORDS = _records()
MESSAGES = [cls for cls in RECORDS if issubclass(cls, Message)]

_INTS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
_SMALL = st.integers(-3, 3)  # collide often: eq and order get exercised
_HASHABLE = st.one_of(st.none(), _SMALL, st.text(max_size=3),
                      st.tuples(_SMALL, _SMALL))


def _strategy(hint):
    if hint is int:
        return st.one_of(_SMALL, _INTS)
    if hint == typing.Optional[int]:
        return st.none() | _SMALL | _INTS
    if hint is str:
        return st.text(max_size=4)
    if hint is object:
        return _HASHABLE
    if hint == frozenset[int]:
        return st.frozensets(_SMALL, max_size=4)
    if hint is Interval:
        return st.tuples(_SMALL, _SMALL).map(lambda ends: Interval(*sorted(ends)))
    if hint is Message:
        return st.sampled_from(MESSAGES).flatmap(_values).map(
            lambda made: made[0](*made[1]))
    raise AssertionError(f"no strategy for a field of type {hint!r}")


def _values(cls):
    """``(cls, field values)`` that construct ``cls``."""
    hints = typing.get_type_hints(cls)
    return st.tuples(st.just(cls), st.tuples(
        *(_strategy(hints[field.name]) for field in fields(cls))))


def _twin(cls):
    """A plain frozen dataclass of ``cls``'s name and fields, with its
    ``__post_init__`` and a ``__repr__`` the class wrote itself."""
    namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__}
    for name in ("__post_init__", "__repr__"):
        method = cls.__dict__.get(name)
        if method is not None and method.__qualname__.startswith(
                cls.__qualname__ + "."):
            namespace[name] = method
    body = {"__annotations__": {field.name: field.type
                                for field in fields(cls)}, **namespace}
    for field in fields(cls):
        if field.default is not dataclasses.MISSING:
            body[field.name] = field.default
    plain = type(cls.__name__, (), body)
    return dataclasses.dataclass(
        frozen=True, order=cls.__dataclass_params__.order)(plain)


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _build(cls, values):
    """``cls(*values)``, or the exception type construction raised."""
    try:
        return cls(*values)
    except Exception as error:  # compared against the twin's
        return type(error)


def _compare(op, left, right):
    try:
        return op(left, right)
    except TypeError:
        return TypeError


def _state(made):
    return tuple(getattr(made, field.name) for field in fields(made))


ids = [cls.__qualname__ for cls in RECORDS]


def test_every_record_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"CommitteeNotice", "Status", "Done", "Response", "Elect",
            "IdAnnounce", "NewId", "SubVote", "HalvingStatus",
            "SlotClaim", "SlotRelease", "KnowledgeGossip", "SlotNoise",
            "RankHello", "Interval", "Send"} == names


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_is_its_plain_frozen_twin(cls, data):
    twin = TWINS[cls]
    _, first = data.draw(_values(cls))
    _, second = data.draw(_values(cls))
    made, other = _build(cls, first), _build(cls, second)
    assert made == _build(twin, first) if isinstance(made, type) else True
    assume(not isinstance(made, type) and not isinstance(other, type))
    plain, plain_other = twin(*first), twin(*second)

    assert repr(made) == repr(plain)
    assert hash(made) == hash(plain)
    assert _state(made) == _state(plain)
    for op in (lambda a, b: a == b, lambda a, b: a != b,
               lambda a, b: a < b, lambda a, b: a <= b,
               lambda a, b: a > b, lambda a, b: a >= b):
        assert _compare(op, made, other) == _compare(op, plain, plain_other)
    assert (made == other) <= (hash(made) == hash(other))
    assert made != plain  # a twin is another class, as for dataclasses


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), salt=st.integers(0, 2 ** 16 - 1))
def test_a_record_is_copied_as_its_twin_is(cls, data, salt):
    _, values = data.draw(_values(cls))
    made = _build(cls, values)
    assume(not isinstance(made, type))
    plain = TWINS[cls](*values)
    names = [field.name for field in fields(cls)]
    assert [field.name for field in fields(made)] == names
    assert cls(**dict(zip(names, values))) == made
    copy = pickle.loads(pickle.dumps(made))
    assert type(copy) is cls and copy == made
    assert dataclasses.replace(made) == made
    if names:
        _, changed = data.draw(_values(cls))
        replaced = _build(lambda: dataclasses.replace(
            made, **{names[0]: changed[0]}), ())
        expected = _build(lambda: dataclasses.replace(
            plain, **{names[0]: changed[0]}), ())
        if isinstance(expected, type):
            assert replaced is expected
        else:
            assert type(replaced) is cls and _state(replaced) == _state(expected)
    if issubclass(cls, Message):
        corrupted = corrupt_message(made, salt)
        assert type(corrupted) is cls
        assert _state(corrupted) == _state(corrupt_message(plain, salt))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_record_has_no_dict_and_refuses_every_change(cls, data):
    _, values = data.draw(_values(cls))
    made = _build(cls, values)
    assume(not isinstance(made, type))
    assert not hasattr(made, "__dict__")
    assert "__slots__" in cls.__dict__
    for name in [field.name for field in fields(cls)] + ["unknown"]:
        with pytest.raises(FrozenInstanceError):
            setattr(made, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(made, name)
    assert _state(made) == tuple(values)


def test_construction_still_validates():
    with pytest.raises(ValueError, match=r"empty interval \[5, 1\]"):
        Interval(5, 1)
    with pytest.raises(ValueError, match="non-negative"):
        Send(-1, Interval(1, 1))
    assert Send(2, None) == Send(to=2, message=None, claim=None)
    with pytest.raises(TypeError):
        Interval(1)
    with pytest.raises(TypeError):
        Interval(1, 2, hi=3)


def _declarations():
    """``(module, class name) -> (decorators, fixed_width keyword)`` of
    every class statement in ``src/repro`` that names ``Message``."""
    found = {}
    for path in SRC.rglob("*.py"):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Message"
                    for base in node.bases):
                width = next((keyword.value.value for keyword in node.keywords
                              if keyword.arg == "fixed_width"), False)
                found[module, node.name] = (
                    [ast.unparse(decorator) for decorator in
                     node.decorator_list], width)
    return found


DECLARATIONS = _declarations()


def test_every_message_in_src_is_declared_with_record():
    assert DECLARATIONS, "no Message subclass found in src/"
    for (module, name), (decorators, _) in DECLARATIONS.items():
        assert decorators == ["record"], f"{module}.{name}: {decorators}"
        assert not any("dataclass" in text for text in decorators)
    assert {(cls.__module__, cls.__name__) for cls in MESSAGES} == set(
        DECLARATIONS)


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda cls: cls.__qualname__)
def test_fixed_width_is_what_the_class_statement_declares(cls):
    _, width = DECLARATIONS[cls.__module__, cls.__name__]
    assert cls.fixed_width is width
    assert cls.__dict__["fixed_width"] is width


def test_no_pre_slots_twin_is_listed():
    listed = [cls for cls in _subclasses(Message)
              if cls.__module__.startswith("repro.")]
    keys = [(cls.__module__, cls.__qualname__) for cls in listed]
    assert len(keys) == len(set(keys))
    for cls in listed:
        assert "__slots__" in cls.__dict__, cls
        assert cls.__dictoffset__ == 0, cls
        module = importlib.import_module(cls.__module__)
        assert getattr(module, cls.__name__) is cls
