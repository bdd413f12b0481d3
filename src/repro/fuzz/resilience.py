"""Per-batch leases with bounded retry: the campaign's crash-recovery core.

``multiprocessing.Pool.map`` — what the driver and campaign used before
this module — has no recovery story: a worker that dies mid-item (OOM
kill, preemption, an injected :func:`repro.faults.crash_point`) leaves
``map`` waiting forever on a result that will never arrive, and a hung
item stalls the whole round.  This runner replaces it with the
queue-and-lease idiom the ROADMAP's scale-out item calls for, scoped to
one machine:

* the parent owns the work: each **batch** of item indices is a lease,
  assigned to exactly one worker over a dedicated pipe, so a dead
  worker's in-flight batch is always attributable (no guessing which
  task a broken pool lost);
* workers are **expendable**: a crash (detected via the process
  sentinel) or a lease that outlives ``lease_timeout_s`` (the worker is
  killed) costs one retry for that batch, with exponential backoff, and
  a replacement worker is spawned;
* a batch that fails ``max_attempts`` times is **quarantined** — the
  round completes without it and the caller records the poison batch
  (indices, seeds, fault fingerprint) instead of dying;
* results are byte-identical to a fault-free run whenever no batch is
  actually lost: item results are keyed on their campaign index, and a
  retried batch re-executes the same index-derived streams.

The runner is deliberately transport-free of campaign specifics: the
campaign (``repro fuzz`` included, as its one-round mode) hands it a
module-level batch function plus its worker initializer, so worker
state shipping (spec, mutation pool, obs and telemetry switches) is
unchanged from the ``Pool`` era.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro import obs as _obs

__all__ = [
    "RetryPolicy",
    "QuarantinedBatch",
    "LeaseOutcome",
    "run_leased_batches",
    "batch_indices",
    "lease_expired",
]

#: ``task(indices, attempt, inject_ok) -> [result, ...]`` — must be a
#: module-level function (it crosses the process boundary by name).
BatchTask = Callable[[Sequence[int], int, bool], List[Dict]]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runner tries before quarantining a batch.

    ``max_attempts`` counts the first execution: the default 3 means one
    run plus two retries.  With ``fault_free_final_attempt`` (the
    default) the last attempt runs with crash *injection* suppressed —
    injected chaos is bounded so a chaos campaign deterministically
    converges to the fault-free report; real faults still exhaust the
    attempts and quarantine.

    ``jitter`` desynchronizes retry storms: a crash that takes out many
    workers at once would otherwise have every batch retry on the exact
    same ``base * 2^(attempt-1)`` schedule.  Each delay is scaled into
    ``[delay * (1 - jitter), delay]`` by a hash of ``(seed, key,
    attempt)`` — never wall clock, never a shared RNG — so chaos runs
    stay exactly reproducible (``seed`` is threaded from the campaign
    seed by the CLI).
    """

    max_attempts: int = 3
    lease_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    fault_free_final_attempt: bool = True
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.lease_timeout_s is not None and self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_s(self, attempt: int, key: Iterable[object] = ()) -> float:
        """Delay before attempt ``attempt`` (0 for the first run).

        ``key`` scopes the jitter (batch id, worker name, ...): distinct
        keys back off at distinct points inside the jitter window.
        """
        if attempt <= 0:
            return 0.0
        delay = min(
            self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_max_s
        )
        if self.jitter <= 0.0:
            return delay
        digest = hashlib.blake2b(
            f"{self.seed}|backoff|{tuple(key)!r}|{attempt}".encode(),
            digest_size=8,
        ).digest()
        fraction = int.from_bytes(digest, "big") / float(1 << 64)
        return delay * (1.0 - self.jitter * fraction)


@dataclass
class QuarantinedBatch:
    """One poison batch: what failed, how often, and why."""

    batch_id: int
    indices: List[int]
    attempts: int
    #: per-attempt failure fingerprints, oldest first — each is
    #: ``{"kind": "crash"|"timeout"|"error", "detail": ...}``.
    fingerprints: List[Dict] = field(default_factory=list)

    def to_payload(self) -> Dict:
        return {
            "batch_id": self.batch_id,
            "indices": list(self.indices),
            "attempts": self.attempts,
            "fingerprints": list(self.fingerprints),
        }


@dataclass
class LeaseOutcome:
    """Everything one leased round produced."""

    results: List[Dict]
    quarantined: List[QuarantinedBatch] = field(default_factory=list)
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0


def lease_expired(deadline: Optional[float], now: float) -> bool:
    """Has a lease with ``deadline`` expired at ``now``?

    The boundary is deliberately *exclusive*: a result arriving exactly
    at the deadline is still inside the lease.  Shared by this runner
    and the distributed coordinator (:mod:`repro.fuzz.dist`) so the two
    lease semantics cannot drift.
    """
    return deadline is not None and now > deadline


def batch_indices(indices: Sequence[int], workers: int) -> List[List[int]]:
    """Slice a round's indices into lease-sized batches.

    Same sizing the ``Pool`` era used for its chunks (``len // (workers
    * 8)``): small enough that a lost batch retries cheaply, large
    enough that lease bookkeeping stays off the hot path.
    """
    chunk = max(1, len(indices) // (max(1, workers) * 8))
    seq = list(indices)
    return [seq[i:i + chunk] for i in range(0, len(seq), chunk)]


# -- the worker side --------------------------------------------------------


def _lease_worker(
    conn,
    task: BatchTask,
    initializer: Optional[Callable],
    initargs: Tuple,
    faults_state: Optional[str],
) -> None:
    """Worker main loop: lease in, results (or a soft error) out.

    Hard crashes (``os._exit``, SIGKILL) need no handling here — the
    parent sees the process sentinel fire and recovers.  Exceptions are
    *soft* failures: reported over the pipe, the worker stays up.
    """
    _faults.init_worker(faults_state)
    if initializer is not None:
        initializer(*initargs)
    while True:
        message = conn.recv()
        if message[0] == "stop":
            conn.close()
            return
        _, batch_id, indices, attempt, inject = message
        try:
            results = task(indices, attempt, inject)
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            conn.send(("error", batch_id, repr(exc)))
        else:
            conn.send(("done", batch_id, results))


class _Worker:
    """Parent-side handle: process + pipe + the lease it currently holds."""

    __slots__ = ("process", "conn", "lease")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: (batch_id, attempt, deadline | None) while a lease is out.
        self.lease: Optional[Tuple[int, int, Optional[float]]] = None


def _spawn_worker(
    task: BatchTask,
    initializer: Optional[Callable],
    initargs: Tuple,
) -> _Worker:
    parent_conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_lease_worker,
        args=(
            child_conn, task, initializer, initargs,
            _faults.worker_init_state(),
        ),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


# -- the parent loop --------------------------------------------------------


def run_leased_batches(
    batches: Sequence[Sequence[int]],
    task: BatchTask,
    workers: int,
    initializer: Optional[Callable] = None,
    initargs: Tuple = (),
    policy: Optional[RetryPolicy] = None,
) -> LeaseOutcome:
    """Run every batch through ``task`` on a leased worker pool.

    Returns once every batch has either produced results or been
    quarantined; never raises on worker failure.  Results preserve no
    particular order — callers sort on their item index, exactly as
    they did with ``Pool.map``.
    """
    policy = policy or RetryPolicy()
    outcome = LeaseOutcome(results=[])
    if not batches:
        return outcome

    #: (batch_id, attempt, not_before) — ready work, newest retries last.
    pending: List[Tuple[int, int, float]] = [
        (batch_id, 0, 0.0) for batch_id in range(len(batches))
    ]
    attempts_fps: Dict[int, List[Dict]] = {b: [] for b in range(len(batches))}
    outstanding = len(batches)

    pool: List[_Worker] = [
        _spawn_worker(task, initializer, initargs)
        for _ in range(min(workers, len(batches)))
    ]

    def fail_lease(worker: _Worker, kind: str, detail: object) -> None:
        """One lease attempt failed: retry with backoff or quarantine."""
        nonlocal outstanding
        assert worker.lease is not None
        batch_id, attempt, _deadline = worker.lease
        worker.lease = None
        fingerprint = {"kind": kind, "detail": detail}
        attempts_fps[batch_id].append(fingerprint)
        if kind == "crash":
            outcome.crashes += 1
        elif kind == "timeout":
            outcome.timeouts += 1
        else:
            outcome.errors += 1
        next_attempt = attempt + 1
        if next_attempt >= policy.max_attempts:
            outcome.quarantined.append(QuarantinedBatch(
                batch_id=batch_id,
                indices=list(batches[batch_id]),
                attempts=next_attempt,
                fingerprints=attempts_fps[batch_id],
            ))
            outstanding -= 1
            if _obs.enabled():
                _obs.default_registry().counter("campaign.quarantined").inc()
        else:
            outcome.retries += 1
            if _obs.enabled():
                _obs.default_registry().counter("campaign.retries").inc()
            pending.append((
                batch_id, next_attempt,
                time.monotonic()
                + policy.backoff_s(next_attempt, key=(batch_id,)),
            ))

    def retire(worker: _Worker, kind: str, detail: object) -> None:
        """A worker died (or was killed): fail its lease, drop the handle."""
        if worker.lease is not None:
            fail_lease(worker, kind, detail)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5)
        pool.remove(worker)

    try:
        while outstanding > 0:
            now = time.monotonic()
            # Assign ready leases to idle workers (spawning replacements
            # up to the pool size when crashes have thinned the pool).
            ready = [p for p in pending if p[2] <= now]
            idle = [w for w in pool if w.lease is None]
            while ready and (idle or len(pool) < workers):
                worker = idle.pop() if idle else None
                if worker is None:
                    worker = _spawn_worker(task, initializer, initargs)
                    pool.append(worker)
                batch_id, attempt, _ = ready.pop(0)
                pending.remove((batch_id, attempt, _))
                inject = not (
                    policy.fault_free_final_attempt
                    and attempt == policy.max_attempts - 1
                )
                deadline = (
                    now + policy.lease_timeout_s
                    if policy.lease_timeout_s is not None else None
                )
                try:
                    worker.conn.send(
                        ("batch", batch_id, list(batches[batch_id]),
                         attempt, inject)
                    )
                except (BrokenPipeError, OSError):
                    # Worker died before taking the lease; the batch
                    # never ran, so this is a crash attempt like any
                    # other (bounded — a worker that dies at init every
                    # time must not retry forever).
                    worker.lease = (batch_id, attempt, None)
                    retire(worker, "crash", "worker died before lease")
                    continue
                worker.lease = (batch_id, attempt, deadline)

            # Wake on: a result/pipe event, a worker death (sentinel), a
            # lease deadline, or a retry becoming ready.
            wake_at: Optional[float] = None
            for worker in pool:
                if worker.lease is not None and worker.lease[2] is not None:
                    deadline = worker.lease[2]
                    wake_at = (
                        deadline if wake_at is None
                        else min(wake_at, deadline)
                    )
            for _b, _a, not_before in pending:
                wake_at = (
                    not_before if wake_at is None
                    else min(wake_at, not_before)
                )
            timeout = 0.5
            if wake_at is not None:
                timeout = min(timeout, max(0.0, wake_at - time.monotonic()))
            watch = {w.conn: w for w in pool if w.lease is not None}
            sentinels = {w.process.sentinel: w for w in pool}
            if not watch and not sentinels and not pending:
                break   # no workers, no work: nothing can progress
            fired = _conn_wait(
                list(watch) + list(sentinels), timeout=timeout
            )

            handled = set()
            for obj in fired:
                worker = watch.get(obj) or sentinels.get(obj)
                if worker is None or id(worker) in handled:
                    continue
                handled.add(id(worker))
                if obj in sentinels and obj not in watch:
                    # Death notification; drain any final message first —
                    # a worker can send its result and *then* crash.
                    if worker.lease is not None and worker.conn.poll():
                        obj = worker.conn
                    else:
                        retire(
                            worker, "crash",
                            f"exit code {worker.process.exitcode}",
                        )
                        continue
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    retire(
                        worker, "crash",
                        f"exit code {worker.process.exitcode}",
                    )
                    continue
                kind, batch_id, payload = message
                lease = worker.lease
                worker.lease = None
                if lease is None or lease[0] != batch_id:
                    continue   # stale message from a superseded lease
                if kind == "done":
                    outcome.results.extend(payload)
                    outstanding -= 1
                else:   # soft error inside the task
                    worker.lease = lease
                    fail_lease(worker, "error", payload)

            # Expired leases: the worker is wedged (hung item, injected
            # hang) — kill it and retry the batch elsewhere.
            now = time.monotonic()
            for worker in list(pool):
                lease = worker.lease
                if lease is not None and lease_expired(lease[2], now):
                    worker.process.kill()
                    retire(
                        worker, "timeout",
                        f"lease exceeded {policy.lease_timeout_s}s",
                    )
    finally:
        for worker in list(pool):
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in pool:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
    return outcome
