"""Async many-session front end: admit / drive / retire over one workspace.

The paper's Figure 2 loop serves one user.  A server multiplexes many:
each admitted session becomes an awaitable state machine — ``drive()``
steps :meth:`~repro.interactive.session.InteractiveSession.step` and
yields control between interactions, where a real deployment would await
the human's answer.  All sessions draw their shared components from one
:class:`~repro.serving.workspace.GraphWorkspace`, so N concurrent
sessions on one graph share one query engine, one language index per
bound and one neighbourhood index.

Cross-session deduplication (the cluster-representative idiom): sessions
whose dedup key — ``(graph fingerprint, example signature, strategy,
halt, session configuration)`` — coincide are provably going to replay
the same interactions and learn the same hypothesis, so only one
*representative* runs the loop; the members adopt its result from the
workspace memo (``deduped=True`` on their :class:`SessionResult`).  A
session is dedup-eligible only when every ingredient of its behaviour is
captured by the key: the oracle must expose a ``dedup_signature()`` (and
return one — unseeded noisy users return ``None``), the strategy and
halt condition must report deterministic signatures, and the example set
must start empty.  Anything unknown disables dedup for that session —
correctness first, savings second.

Supervision (PR 8): pass ``supervision=SupervisionPolicy(...)`` to drive
sessions through component failures — each ``advance()`` step gets a
``time.monotonic`` deadline and a bounded retry budget with seeded-jitter
backoff, and a per-session circuit breaker quarantines sessions whose
oracle keeps failing.  A quarantined session retires gracefully with a
partial-result trace (``SessionResult.quarantined``) that is never
shared through the dedup memo.  Without a policy the driving path is the
exact pre-supervision instruction stream — bit-identical replay.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.exceptions import SessionNotFoundError
from repro.graph.labeled_graph import LabeledGraph
from repro.interactive.session import InteractiveSession, SessionResult
from repro.reliability.policy import Deadline
from repro.reliability.supervisor import SupervisionPolicy
from repro.serving.workspace import GraphWorkspace, default_workspace


def session_dedup_key(
    session: InteractiveSession, workspace: GraphWorkspace
) -> Optional[Hashable]:
    """The cross-session dedup key of ``session`` (``None``: not eligible).

    Two sessions with equal keys run the identical interaction sequence:
    the graph content, the oracle's answers, the proposal strategy, the
    halt condition and every loop parameter are all pinned by the key.
    ``None`` from any component (an unseeded random strategy, a noisy
    oracle without a seed, a custom condition without a signature) makes
    the session ineligible rather than wrongly deduped.
    """
    if session.records or session.examples.labeled_nodes:
        return None  # mid-flight or pre-seeded: history is not in the key
    user_signature = getattr(session.user, "dedup_signature", None)
    if user_signature is None:
        return None
    example_signature = user_signature()
    if example_signature is None:
        return None
    strategy_signature = getattr(session.strategy, "signature", lambda: None)()
    if strategy_signature is None:
        return None
    halt_signature = getattr(session.halt_condition, "signature", lambda: None)()
    if halt_signature is None:
        return None
    return (
        "session",
        workspace.graph_fingerprint(session.graph),
        example_signature,
        strategy_signature,
        halt_signature,
        session.path_validation,
        session.max_path_length,
    )


@dataclass
class SessionHandle:
    """Book-keeping record of one admitted session."""

    session_id: str
    session: InteractiveSession
    dedup_key: Optional[Hashable]
    result: Optional[SessionResult] = None
    deduped: bool = False
    steps_driven: int = 0
    # representative/member coordination; created lazily inside the
    # running event loop (binding an Event outside a loop breaks on 3.9)
    _done: Optional["asyncio.Event"] = None

    def done_event(self) -> "asyncio.Event":
        if self._done is None:
            self._done = asyncio.Event()
        return self._done


class SessionManager:
    """Admits, drives and retires interactive sessions over one workspace.

    Usage::

        manager = SessionManager(workspace)
        for user in users:
            manager.admit(graph, user, max_interactions=30)
        results = manager.run_all()          # or: await manager.drive_all()

    ``drive()`` is cooperative: between steps it awaits
    ``asyncio.sleep(0)``, the seam where a deployment awaits the human's
    answer or yields to other sessions on the event loop.
    """

    def __init__(
        self,
        workspace: Optional[GraphWorkspace] = None,
        *,
        dedup: bool = True,
        max_concurrent: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
        injector=None,
    ):
        self.workspace = workspace if workspace is not None else default_workspace()
        self.dedup = dedup
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        self._max_concurrent = max_concurrent
        self._semaphore: Optional[asyncio.Semaphore] = None
        #: optional SupervisionPolicy; None = unsupervised (bit-identical
        #: to the pre-reliability driving path)
        self.supervision = supervision
        #: optional FaultInjector consulted before every supervised step
        #: (site "manager.step:<session_id>")
        self.injector = injector
        self._handles: Dict[str, SessionHandle] = {}
        # dedup key -> session_id of the in-flight representative
        self._representatives: Dict[Hashable, str] = {}
        self._admitted = 0
        self._completed = 0
        self._deduped = 0
        self._quarantined = 0
        self._step_retries = 0
        self._deadline_overruns = 0

    # ------------------------------------------------------------------
    # admission / retirement
    # ------------------------------------------------------------------
    def admit(
        self,
        graph: LabeledGraph,
        user,
        *,
        session_id: Optional[str] = None,
        **session_kwargs,
    ) -> str:
        """Create a session over the manager's workspace and register it.

        ``session_kwargs`` are forwarded to
        :class:`~repro.interactive.session.InteractiveSession` (strategy,
        halt condition, bounds, …).  Returns the session id.
        """
        if session_id is None:
            session_id = f"s{self._admitted:05d}"
        if session_id in self._handles:
            raise ValueError(f"session id {session_id!r} already admitted")
        session = InteractiveSession(
            graph, user, workspace=self.workspace, **session_kwargs
        )
        dedup_key = session_dedup_key(session, self.workspace) if self.dedup else None
        self._handles[session_id] = SessionHandle(session_id, session, dedup_key)
        self._admitted += 1
        return session_id

    def retire(self, session_id: str) -> Optional[SessionResult]:
        """Drop a session from the manager, returning its result if any."""
        handle = self._handles.pop(session_id, None)
        if handle is None:
            raise SessionNotFoundError(session_id)
        if handle.dedup_key is not None:
            if self._representatives.get(handle.dedup_key) == session_id:
                del self._representatives[handle.dedup_key]
        return handle.result

    def session(self, session_id: str) -> InteractiveSession:
        """The live session object behind ``session_id``."""
        return self._handle(session_id).session

    def result(self, session_id: str) -> Optional[SessionResult]:
        """The session's result, or ``None`` while it is still running."""
        return self._handle(session_id).result

    def session_ids(self) -> Tuple[str, ...]:
        """Ids of every admitted (not yet retired) session."""
        return tuple(self._handles)

    def _handle(self, session_id: str) -> SessionHandle:
        handle = self._handles.get(session_id)
        if handle is None:
            raise SessionNotFoundError(session_id)
        return handle

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    async def drive(self, session_id: str) -> SessionResult:
        """Run ``session_id`` to completion, yielding between interactions.

        Dedup-eligible sessions first consult the workspace memo, then
        elect a representative among concurrently admitted twins; only
        the representative executes the loop.
        """
        handle = self._handle(session_id)
        if handle.result is not None:
            return handle.result
        key = handle.dedup_key
        if key is not None:
            memoised = self.workspace.memo_get(("result",) + key[1:])
            if memoised is not None:
                return self._adopt(handle, memoised)
            owner = self._representatives.get(key)
            if owner is not None and owner != session_id:
                return await self._follow(handle, self._handles.get(owner))
            self._representatives[key] = session_id
        try:
            result = await self._run(handle)
        finally:
            handle.done_event().set()
        if key is not None and not result.quarantined:
            # a quarantined partial trace must never be shared: members
            # of the dedup cluster would adopt a result that only
            # reflects where *this* session's faults happened to land
            self.workspace.memo_put(("result",) + key[1:], result)
        return result

    async def drive_all(self) -> Dict[str, SessionResult]:
        """Drive every admitted-but-unfinished session concurrently."""
        pending = [
            handle.session_id
            for handle in self._handles.values()
            if handle.result is None
        ]
        results = await asyncio.gather(
            *(self.drive(session_id) for session_id in pending)
        )
        return dict(zip(pending, results))

    def run_all(self) -> Dict[str, SessionResult]:
        """Synchronous convenience wrapper around :meth:`drive_all`."""
        return asyncio.run(self.drive_all())

    async def _run(self, handle: SessionHandle) -> SessionResult:
        semaphore = self._slots()
        if semaphore is None:
            return await self._step_to_completion(handle)
        async with semaphore:
            return await self._step_to_completion(handle)

    async def _step_to_completion(self, handle: SessionHandle) -> SessionResult:
        if self.supervision is not None:
            return await self._step_supervised(handle)
        session = handle.session
        await asyncio.sleep(0)
        while session.advance():
            handle.steps_driven += 1
            # the await seam: a deployment awaits the next oracle answer
            # here; simulated oracles answer synchronously inside step()
            await asyncio.sleep(0)
        result = session.finish()
        handle.result = result
        self._completed += 1
        return result

    async def _step_supervised(self, handle: SessionHandle) -> SessionResult:
        """Drive one session through faults: retry, deadline, breaker.

        Each ``advance()`` attempt is gated by the manager's fault
        injector (site ``manager.step:<id>``) and timed against the
        policy's monotonic step deadline.  Retryable failures back off
        (seeded jitter per session) and retry within the policy's
        bounded budget; a deadline overrun is not retried — the step's
        effect already happened — but counts against the breaker.  When
        the breaker trips or a step's retry budget is spent, the session
        is quarantined: sealed via ``session.abort()`` with its partial
        trace.  Non-retryable errors propagate unchanged.
        """
        session = handle.session
        policy = self.supervision
        retry = policy.retry
        breaker = policy.breaker()
        jitter = policy.jitter_rng(handle.session_id)
        fault_site = f"manager.step:{handle.session_id}"
        await asyncio.sleep(0)
        advancing = True
        while advancing:
            attempt = 0
            while True:  # bounded: quarantines once attempt reaches retry.max_attempts
                attempt += 1
                deadline = Deadline(policy.step_deadline_seconds)
                try:
                    if self.injector is not None:
                        self.injector.check(fault_site)
                    advancing = session.advance()
                except Exception as error:
                    if not retry.is_retryable(error):
                        raise
                    breaker.record_failure()
                    if breaker.tripped:
                        return self._quarantine(handle, breaker.tripped_by)
                    if attempt >= retry.max_attempts:
                        return self._quarantine(
                            handle,
                            f"retry budget spent: {attempt} attempt(s), "
                            f"last error {error!r}",
                        )
                    self._step_retries += 1
                    await asyncio.sleep(retry.backoff_delay(attempt, jitter))
                    continue
                if deadline.expired():
                    # the step completed but took too long; its effect on
                    # the session stands (advance() is not replayable), so
                    # charge the breaker instead of retrying
                    self._deadline_overruns += 1
                    breaker.record_failure()
                    if breaker.tripped:
                        return self._quarantine(handle, breaker.tripped_by)
                else:
                    breaker.record_success()
                break
            if advancing:
                handle.steps_driven += 1
                await asyncio.sleep(0)
        result = session.finish()
        handle.result = result
        self._completed += 1
        return result

    def _quarantine(self, handle: SessionHandle, reason: str) -> SessionResult:
        """Retire a session the breaker gave up on, keeping its partial trace."""
        result = handle.session.abort(f"quarantined: {reason}")
        handle.result = result
        self._completed += 1
        self._quarantined += 1
        return result

    async def _follow(
        self, handle: SessionHandle, owner: Optional[SessionHandle]
    ) -> SessionResult:
        """Wait for the representative, then adopt its result."""
        if owner is not None:
            await owner.done_event().wait()
            if owner.result is not None and not owner.result.quarantined:
                return self._adopt(handle, owner.result)
        # the representative was retired, failed or quarantined: run
        # independently
        if handle.dedup_key is not None:
            self._representatives.setdefault(handle.dedup_key, handle.session_id)
        result = await self._run(handle)
        handle.done_event().set()
        return result

    def _adopt(self, handle: SessionHandle, shared: SessionResult) -> SessionResult:
        """Attach the representative's result to a deduped member."""
        result = replace(shared, records=list(shared.records), deduped=True)
        handle.result = result
        handle.deduped = True
        handle.done_event().set()
        self._completed += 1
        self._deduped += 1
        return result

    def _slots(self) -> Optional[asyncio.Semaphore]:
        if self._max_concurrent is None:
            return None
        if self._semaphore is None:
            # created lazily so the semaphore binds to the running loop
            self._semaphore = asyncio.Semaphore(self._max_concurrent)
        return self._semaphore

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Admission / completion / dedup counters."""
        return {
            "admitted": self._admitted,
            "active": len(self._handles),
            "completed": self._completed,
            "deduped": self._deduped,
            "representatives": len(self._representatives),
            "quarantined": self._quarantined,
            "step_retries": self._step_retries,
            "deadline_overruns": self._deadline_overruns,
        }

    def __repr__(self) -> str:
        return (
            f"<SessionManager {len(self._handles)} sessions, "
            f"{self._completed} completed, {self._deduped} deduped>"
        )
