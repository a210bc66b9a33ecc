"""The fabric's work queue: run requests as leasable, settleable tasks.

:class:`TaskQueue` holds every statement against the ``tasks`` table of
a :class:`~repro.engine.store.RunStore` (the table itself is part of
the store's one schema) and owns the translation between engine values
and queue rows:

* **Enqueue** — a :class:`~repro.engine.sweeps.RunRequest` becomes a
  task keyed by its *content hash* (the same hash the ``runs`` table
  uses), with the request serialized as a JSON spec.  Using the run
  hash as the task key makes settlement at-most-once structurally:
  however many workers race on a task, they all resolve to the same
  single ``runs`` row, and re-enqueueing a campaign is a no-op for
  every task already known.
* **Lease** — ``claim`` atomically takes the first claimable task
  (``pending``, or ``leased`` past its deadline — its worker crashed)
  and stamps owner + deadline; ``heartbeat`` extends a live lease and
  reports honestly when the lease was lost to the reaper.
* **Settle** — only the live lease owner transitions the task to
  ``settled``/``failed``; everyone else gets a detected no-op verdict
  (see the ``SETTLE_*`` constants) — never a second settlement.

Every mutation runs inside one :meth:`RunStore.transaction`, so it is
atomic claim-or-nothing for competing workers in other threads and
other processes.  The queue deliberately knows nothing about
*executing* tasks — that is :mod:`repro.engine.fabric` — so it can be
driven directly by tests (every clock-reading method takes ``now=``)
and by the status CLI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine.store import RunStore, canonical_json, code_version, run_hash
from repro.engine.sweeps import RunRequest, request_from_spec, request_to_spec

__all__ = [
    "QueuedTask",
    "SETTLE_ALREADY",
    "SETTLE_LOST",
    "SETTLE_MISSING",
    "SETTLE_OK",
    "TASK_FAILED",
    "TASK_LEASED",
    "TASK_PENDING",
    "TASK_SETTLED",
    "TASK_STATES",
    "TaskQueue",
    "task_request",
]

#: Work-queue task states (the lease/settlement state machine).
TASK_PENDING = "pending"
TASK_LEASED = "leased"
TASK_SETTLED = "settled"
TASK_FAILED = "failed"

TASK_STATES = (TASK_PENDING, TASK_LEASED, TASK_SETTLED, TASK_FAILED)

#: ``TaskQueue.settle`` outcomes.
SETTLE_OK = "settled"          # this call performed the settlement
SETTLE_ALREADY = "already"     # task was already settled/failed: no-op
SETTLE_LOST = "lost"           # lease was reaped or re-leased elsewhere
SETTLE_MISSING = "missing"     # no such task


@dataclass
class QueuedTask:
    """One work-queue entry, decoded from the ``tasks`` table.

    ``task_hash`` is the run's content address (the same hash the
    ``runs`` table is keyed on), so settlement into the run store is
    at-most-once *structurally*: however many workers race, there is
    exactly one ``runs`` row a task can resolve to.  ``attempts``
    counts leases taken out on the task — 1 for a clean first
    execution, more after crash recovery re-leases.
    """

    campaign: str
    task_hash: str
    seq: int
    spec: dict
    state: str
    lease_owner: Optional[str]
    lease_deadline: Optional[float]
    attempts: int
    result_status: Optional[str]
    created: float
    settled: Optional[float]

    @property
    def done(self) -> bool:
        return self.state in (TASK_SETTLED, TASK_FAILED)


def task_request(task: QueuedTask) -> RunRequest:
    """Rebuild the run request a queued task stands for."""
    return request_from_spec(task.spec)


_TASK_COLUMNS = ("campaign, task_hash, seq, spec, state, lease_owner,"
                 " lease_deadline, attempts, result_status, created, settled")

#: States a task can be claimed from; ``leased`` only past its deadline.
#: Binds ``(TASK_PENDING, TASK_LEASED, now)``.
_CLAIMABLE = ("state = ? OR (state = ? AND lease_deadline IS NOT NULL"
              " AND lease_deadline < ?)")


def _decode_task(record: tuple) -> QueuedTask:
    (campaign, task_hash, seq, spec, state, lease_owner, lease_deadline,
     attempts, result_status, created, settled) = record
    return QueuedTask(
        campaign=campaign, task_hash=task_hash, seq=int(seq),
        spec=json.loads(spec), state=state, lease_owner=lease_owner,
        lease_deadline=lease_deadline, attempts=int(attempts),
        result_status=result_status, created=created, settled=settled,
    )


class TaskQueue:
    """Typed queue operations over one run store's ``tasks`` table."""

    def __init__(self, store: RunStore):
        self.store = store

    # -- enqueue ------------------------------------------------------

    def enqueue(self, campaign: str,
                requests: Sequence[RunRequest]) -> tuple[int, int]:
        """Fan requests out as pending tasks; returns ``(total, new)``.

        Task hashes are content hashes under the *current* code
        version, so editing any source enqueues fresh work instead of
        colliding with stale tasks.  Duplicate requests inside one
        call collapse to one task; re-enqueueing is idempotent
        (already-enqueued hashes are ignored, so ``new`` counts only
        the rows actually inserted).
        """
        version = code_version()
        specs: dict[str, str] = {}
        for request in requests:
            hash_ = run_hash(request.driver, request.n, request.f,
                             request.seed, request.params, version)
            specs.setdefault(hash_, canonical_json(request_to_spec(request)))
        created = time.time()
        with self.store.transaction() as connection:
            # rowcount sums over the batch; an ignored duplicate adds 0.
            new = connection.executemany(
                f"INSERT OR IGNORE INTO tasks ({_TASK_COLUMNS})"
                " VALUES (?, ?, ?, ?, ?, NULL, NULL, 0, NULL, ?, NULL)",
                [(campaign, hash_, seq, spec, TASK_PENDING, created)
                 for seq, (hash_, spec) in enumerate(specs.items())],
            ).rowcount
        return len(specs), new

    # -- lease / settle ----------------------------------------------

    def claim(self, owner: str, lease_ttl: float,
              campaign: Optional[str] = None,
              now: Optional[float] = None) -> Optional[QueuedTask]:
        """Lease the first claimable task, or return ``None``.

        Claimable: ``pending``, or ``leased`` with an expired deadline
        (its worker crashed without settling).  The read and the lease
        UPDATE share one write transaction, and the UPDATE re-checks
        the claimability predicate, so two workers can never lease the
        same task generation.
        """
        now = time.time() if now is None else now
        claimable = (TASK_PENDING, TASK_LEASED, now)
        sql = f"SELECT {_TASK_COLUMNS} FROM tasks WHERE ({_CLAIMABLE})"
        values: list = list(claimable)
        if campaign is not None:
            sql += " AND campaign = ?"
            values.append(campaign)
        sql += " ORDER BY campaign, seq LIMIT 1"
        with self.store.transaction() as connection:
            record = connection.execute(sql, values).fetchone()
            if record is None:
                return None
            task = _decode_task(record)
            leased = connection.execute(
                "UPDATE tasks SET state = ?, lease_owner = ?,"
                " lease_deadline = ?, attempts = attempts + 1"
                f" WHERE campaign = ? AND task_hash = ? AND ({_CLAIMABLE})",
                (TASK_LEASED, owner, now + lease_ttl, task.campaign,
                 task.task_hash, *claimable),
            ).rowcount
        if leased != 1:  # pragma: no cover - racy
            return None
        task.state = TASK_LEASED
        task.lease_owner = owner
        task.lease_deadline = now + lease_ttl
        task.attempts += 1
        return task

    def heartbeat(self, task: QueuedTask, owner: str, lease_ttl: float,
                  now: Optional[float] = None) -> bool:
        """Extend the caller's live lease; ``False`` means it was lost."""
        now = time.time() if now is None else now
        with self.store.transaction() as connection:
            return connection.execute(
                "UPDATE tasks SET lease_deadline = ?"
                " WHERE campaign = ? AND task_hash = ? AND state = ?"
                " AND lease_owner = ?",
                (now + lease_ttl, task.campaign, task.task_hash,
                 TASK_LEASED, owner),
            ).rowcount == 1

    def settle(self, task: QueuedTask, owner: str, *,
               result_status: Optional[str],
               now: Optional[float] = None) -> str:
        """Settle the caller's lease from the run outcome.

        ``result_status == "ok"`` settles the task; anything else
        (including ``None`` for a run that never produced a result)
        fails it.  Only the live lease owner settles (``SETTLE_OK``);
        anyone else gets a detected no-op — ``SETTLE_ALREADY`` when the
        task is done, ``SETTLE_LOST`` when the lease moved on, and
        ``SETTLE_MISSING`` when there is no such task.
        """
        state = TASK_SETTLED if result_status == "ok" else TASK_FAILED
        now = time.time() if now is None else now
        with self.store.transaction() as connection:
            settled = connection.execute(
                "UPDATE tasks SET state = ?, result_status = ?, settled = ?,"
                " lease_owner = NULL, lease_deadline = NULL"
                " WHERE campaign = ? AND task_hash = ? AND state = ?"
                " AND lease_owner = ?",
                (state, result_status, now, task.campaign, task.task_hash,
                 TASK_LEASED, owner),
            ).rowcount
            if settled == 1:
                return SETTLE_OK
            record = connection.execute(
                "SELECT state FROM tasks WHERE campaign = ?"
                " AND task_hash = ?", (task.campaign, task.task_hash),
            ).fetchone()
        if record is None:
            return SETTLE_MISSING
        if record[0] in (TASK_SETTLED, TASK_FAILED):
            return SETTLE_ALREADY
        return SETTLE_LOST

    def reap(self, campaign: Optional[str] = None, *, force: bool = False,
             now: Optional[float] = None) -> list[QueuedTask]:
        """Return expired leases to ``pending`` (all leases if ``force``).

        Returns the reclaimed tasks as they were *before* reaping, so
        the caller can report which owner lost each lease.
        """
        stale = "state = ?"
        values: list = [TASK_LEASED]
        if not force:
            stale += " AND lease_deadline IS NOT NULL AND lease_deadline < ?"
            values.append(time.time() if now is None else now)
        if campaign is not None:
            stale += " AND campaign = ?"
            values.append(campaign)
        with self.store.transaction() as connection:
            reaped = [_decode_task(record) for record in connection.execute(
                f"SELECT {_TASK_COLUMNS} FROM tasks WHERE {stale}"
                " ORDER BY campaign, seq", values).fetchall()]
            for task in reaped:
                connection.execute(
                    "UPDATE tasks SET state = ?, lease_owner = NULL,"
                    " lease_deadline = NULL"
                    " WHERE campaign = ? AND task_hash = ? AND state = ?"
                    " AND lease_owner = ?",
                    (TASK_PENDING, task.campaign, task.task_hash,
                     TASK_LEASED, task.lease_owner),
                )
        return reaped

    # -- introspection ------------------------------------------------

    def get(self, campaign: str, task_hash: str) -> Optional[QueuedTask]:
        record = self.store.execute(
            f"SELECT {_TASK_COLUMNS} FROM tasks"
            " WHERE campaign = ? AND task_hash = ?",
            (campaign, task_hash)).fetchone()
        return _decode_task(record) if record else None

    def tasks(self, *, campaign: Optional[str] = None,
              state: Optional[str] = None,
              limit: Optional[int] = None) -> list[QueuedTask]:
        clauses, values = [], []
        if campaign is not None:
            clauses.append("campaign = ?")
            values.append(campaign)
        if state is not None:
            clauses.append("state = ?")
            values.append(state)
        sql = f"SELECT {_TASK_COLUMNS} FROM tasks"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY campaign, seq"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [_decode_task(record)
                for record in self.store.execute(sql, values).fetchall()]

    def counts(self, campaign: Optional[str] = None,
               ) -> dict[str, dict[str, int]]:
        """``{campaign: {state: count, "total": count}}``."""
        sql = "SELECT campaign, state, COUNT(*) FROM tasks"
        values: list = []
        if campaign is not None:
            sql += " WHERE campaign = ?"
            values.append(campaign)
        sql += " GROUP BY campaign, state ORDER BY campaign, state"
        counts: dict[str, dict[str, int]] = {}
        for name, state, count in self.store.execute(sql, values).fetchall():
            per = counts.setdefault(
                name, {s: 0 for s in TASK_STATES} | {"total": 0})
            per[state] = int(count)
            per["total"] += int(count)
        return counts

    def campaigns(self) -> list[str]:
        return sorted(self.counts())

    def outstanding(self, campaign: Optional[str] = None) -> int:
        """Tasks not yet settled or failed (pending + leased)."""
        return sum(
            per[TASK_PENDING] + per[TASK_LEASED]
            for per in self.counts(campaign).values()
        )
