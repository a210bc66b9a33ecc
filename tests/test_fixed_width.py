"""A fixed-width message type is sized once per run.

``Message.fixed_width`` says "my ``payload_bits`` reads only the cost
model", and ``Metrics.message_bits`` then sizes the class once for the
run's one ``CostModel``.  Two things must hold for that to change no
counted result:

- (a) **the contract**: every class under ``src/repro`` that declares
  it has one size per cost model, whatever its field values -- drawn
  at random, out of range, or bit-flipped by ``corrupt_message`` -- and
  every type that does not (a width-varying one, or a subclass that did
  not re-declare) is still sized per object;
- (b) **the counts**: the crash round pays once for each distinct
  thing -- one ``bit_size`` call per fixed-width class and run, no copy
  of an empty ``Send`` list, no envelope slot for a scatter's answers --
  and the golden digests hold (``tests/test_golden_digests.py``; the
  oracle rounds are in ``tests/test_fastpath_ab.py``).
"""

import importlib
import pkgutil
import typing
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.balls_into_slots import SlotClaim, SlotRelease
from repro.baselines.collect_rank import KnowledgeGossip
from repro.baselines.obg_halving import HalvingStatus
from repro.consensus.comm import SubVote
from repro.core.byzantine_renaming import Elect, IdAnnounce, NewId
from repro.core.crash_renaming import CommitteeNotice, Done, Response, Status
from repro.core.intervals import Interval
from repro.faults.base import corrupt_message
from repro.sim import columnar
from repro.sim.messages import HEADER_BITS, CostModel, Message
from repro.sim.metrics import Metrics
from repro.sim.network import SyncNetwork
from tests import test_golden_digests as golden
from tests.test_shared_views_property import _RoundSized

# ---------------------------------------------------------------------------
# (a) the contract


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _declared():
    """Every ``Message`` subclass under ``repro`` that declares fixed
    width, once every module of the package has been imported."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return sorted({cls for cls in _subclasses(Message)
                   if cls.__module__.startswith("repro.")
                   and cls.fixed_width}, key=lambda cls: cls.__qualname__)


DECLARED = _declared()

#: Field values a wire format can carry, and then some: negative, past
#: 64 bits, ``None`` where the type allows it.
_WIDE = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)


def _strategy(hint):
    if hint is int:
        return _WIDE
    if hint is Interval:
        return st.tuples(_WIDE, _WIDE).map(lambda ends: Interval(*sorted(ends)))
    if hint == typing.Optional[int]:
        return st.none() | _WIDE
    raise AssertionError(f"no strategy for a field of type {hint!r}")


def _instances(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{field.name: _strategy(hints[field.name])
                             for field in fields(cls)})


_COSTS = st.builds(lambda n, extra: CostModel(n=n, namespace=n + extra),
                   st.integers(1, 1 << 20), st.integers(0, 1 << 40))


def test_the_ten_declarations_are_discovered():
    assert {CommitteeNotice, Status, Done, Response, HalvingStatus,
            SlotClaim, SlotRelease, Elect, IdAnnounce, NewId} <= set(DECLARED)
    assert not {SubVote, KnowledgeGossip, _RoundSized} & set(DECLARED)


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__qualname__)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), cost=_COSTS, salt=st.integers(0, 2 ** 16 - 1))
def test_a_fixed_width_size_reads_only_the_cost_model(cls, data, cost, salt):
    first = data.draw(_instances(cls))
    other = data.draw(_instances(cls))
    bits = first.bit_size(cost)
    assert other.bit_size(cost) == bits
    assert corrupt_message(other, salt).bit_size(cost) == bits
    # The run's memo answers the class's one size for every object.
    metrics = Metrics(cost=cost)
    metrics.begin_round()
    assert metrics.message_bits(other) == metrics.message_bits(first) == bits
    assert metrics._bits_by_class == {cls: bits}


@dataclass(frozen=True)
class _DeepStatus(Status):
    """Overrides ``payload_bits`` with a field and does not re-declare."""

    def payload_bits(self, cost):
        return max(0, self.depth)


class _Redeclared(_DeepStatus, fixed_width=True):
    def payload_bits(self, cost):
        return cost.id_bits


def _pairs():
    return [
        (SubVote(1, "echo", None, 3), SubVote(1, "echo", None, 50)),
        (KnowledgeGossip(frozenset({1})), KnowledgeGossip(frozenset(range(9)))),
        (_RoundSized({"round": 3}), _RoundSized({"round": 40})),
        (_DeepStatus(1, Interval(1, 2), 3, 0),
         _DeepStatus(1, Interval(1, 2), 40, 0)),
    ]


@pytest.mark.parametrize("small, large", _pairs(),
                         ids=["SubVote", "KnowledgeGossip", "_RoundSized",
                              "undeclared-subclass"])
def test_a_width_varying_type_is_sized_per_object(small, large):
    assert not type(small).fixed_width
    cost = CostModel(n=8, namespace=64)
    metrics = Metrics(cost=cost)
    metrics.begin_round()
    assert metrics.message_bits(small) == small.bit_size(cost)
    assert metrics.message_bits(large) == large.bit_size(cost)
    assert small.bit_size(cost) < large.bit_size(cost)
    assert metrics._bits_by_class == {}


def test_a_declaration_is_not_inherited_but_can_be_repeated():
    assert Status.fixed_width and not _DeepStatus.fixed_width
    assert _Redeclared.fixed_width and not Message.fixed_width
    assert "fixed_width" in vars(_DeepStatus)  # pinned, not looked up


def test_the_class_memo_is_the_runs_own():
    """Two runs with two cost models size the same class twice."""
    small, large = CostModel(n=4, namespace=16), CostModel(n=4, namespace=2 ** 40)
    sizes = []
    for cost in (small, large):
        metrics = Metrics(cost=cost)
        metrics.begin_round()
        sizes.append(metrics.message_bits(Elect(uid=3)))
        metrics.begin_round()
        assert metrics.message_bits(Elect(uid=9)) == sizes[-1]
    assert sizes == [HEADER_BITS + small.id_bits, HEADER_BITS + large.id_bits]


# ---------------------------------------------------------------------------
# (b) the counts


@pytest.fixture
def counted(monkeypatch):
    """Counts ``bit_size`` calls, copies of an empty ``Send`` list and
    envelope slots ``add_scatter`` writes, over everything run after."""
    counts = {"bit_size": 0, "copies": 0, "slots": 0}
    bit_size = Message.bit_size
    validated = SyncNetwork._validated
    add_scatter = columnar.ColumnarRound.add_scatter

    def counting_bit_size(self, cost):
        counts["bit_size"] += 1
        return bit_size(self, cost)

    def counting_validated(self, index, sends):
        out = validated(self, index, sends)
        if type(sends) is list and not sends and out is not sends:
            counts["copies"] += 1
        return out

    def counting_add_scatter(self, header, messages, links):
        before = len(self.env)
        group = add_scatter(self, header, messages, links)
        counts["slots"] += len(self.env) - before
        return group

    monkeypatch.setattr(Message, "bit_size", counting_bit_size)
    monkeypatch.setattr(SyncNetwork, "_validated", counting_validated)
    monkeypatch.setattr(columnar.ColumnarRound, "add_scatter",
                        counting_add_scatter)
    return counts


def test_crash_paper_sizes_three_classes_and_slots_no_answer(counted):
    """6,048 ``bit_size`` calls and 193,536 scatter slots before."""
    result = golden.CASES["crash-paper-n96"]()
    assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
    assert result.metrics.sends_by_type["Response"] == 96 * 96 * 21
    assert counted == {"bit_size": 3, "copies": 0, "slots": 0}


def test_the_hunter_run_copies_no_empty_list(counted):
    """10,442 ``bit_size`` calls and 10,522 empty-list copies before."""
    result = golden.hunter_case(256, 0)
    assert len(result.outputs_by_uid()) == 256 - len(result.crashed)
    assert counted["bit_size"] == 3 and counted["copies"] == 0


@pytest.mark.parametrize("run, calls", [
    (golden.run_obg_halving, 1),       # 1,854 before
    (golden.run_balls_into_slots, 2),  # 1,182 before
], ids=["obg", "balls"])
def test_a_baseline_sizes_each_class_once(counted, run, calls):
    result = golden.baseline_case(run, 256, 32, 0)
    assert result.metrics.total_messages > 256 * 256
    assert counted["bit_size"] == calls
