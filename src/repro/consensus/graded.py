"""Graded broadcast: the 2-round core of Validator and Consensus.

A Feldman-Micali-style gradecast adapted to asymmetric committee views.
Every correct member ``v`` knows its view ``C_v`` with the invariants
(Lemma 3.5): the set ``G`` of correct members is contained in every
correct view, ``|G| >= c_g``, and the Byzantine members across all
views number ``|B| <= b_max < c_g / 2``.

Round 1 -- every member broadcasts its input to its view.
Round 2 -- ``v`` echoes the plurality value ``x`` of round 1 if it was
reported by at least ``m_v - b_max`` senders (``m_v`` = number of round-1
senders ``v`` heard), else echoes ``BOTTOM``.
Grading  -- with ``m'_v`` round-2 senders and ``c`` echoes of the
plurality non-BOTTOM echo ``x``:

* ``c >= m'_v - b_max``  -> grade 2, output ``x``
* ``c >= b_max + 1``     -> grade 1, output ``x``
* otherwise              -> grade 0, output ``BOTTOM``

Guarantees (proved under the invariants above, and property-tested in
``tests/test_consensus_properties.py``):

1. If all correct members input the same ``x``: every correct member
   gets grade 2 and output ``x``.
2. Any two correct members with grade >= 1 output the same value, and
   that value was the *input of some correct member*.
3. If any correct member gets grade 2 with ``x``, every correct member
   gets grade >= 1 with ``x``.

The threshold arithmetic: a correct echo of ``x`` implies at least
``|G| - b_max > b_max`` correct members input ``x``, so two different
values cannot both be echoed by correct members, and ``b_max`` fake
echoes can never reach the grade-1 bar on their own.
"""

from __future__ import annotations

from repro.consensus.comm import CommitteeComm

#: Sentinel echoed when no value is sufficiently popular.
BOTTOM = "__bottom__"


def graded_broadcast(comm: CommitteeComm, value: object, width: int):
    """Generator sub-program; returns ``(grade, output)``."""
    comm.step += 1
    inbox = yield comm.sends("gb-input", value, width)
    heard, popular, count = comm.tally(inbox, "gb-input")
    echo: object = BOTTOM
    if count and count >= heard - comm.b_max and popular != BOTTOM:
        echo = popular

    comm.step += 1
    inbox = yield comm.sends("gb-echo", echo, width)
    heard, popular, count = comm.tally(inbox, "gb-echo", BOTTOM)
    if count and count >= heard - comm.b_max:
        return 2, popular
    if count >= comm.b_max + 1:
        return 1, popular
    return 0, BOTTOM
