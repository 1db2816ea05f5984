"""Typed, seeded fault plans for both layers of the system.

A :class:`FaultPlan` is a declarative schedule: *what* goes wrong and
when.  Eleven fault kinds cover two layers.

The **machine layer** breaks one simulation; ``step`` is the adaptation
point the fault fires at (:class:`~repro.faults.injector.FaultInjector`
applies them, :func:`~repro.faults.soak.run_soak` drives them):

* :class:`RankCrash` — a rank in the ``Px x Py`` grid dies at step ``k``
  (fail-stop; detected by the heartbeat view, recovered by grid shrink);
* :class:`LinkFault` — a network link's bandwidth degrades by a factor in
  ``(0, 1]`` (applied via :meth:`NetworkSimulator.set_link_fault`);
* :class:`RankStraggler` — a rank's software overhead inflates by a
  factor ``>= 1`` (applied via :meth:`NetworkSimulator.set_rank_slowdown`);
* :class:`SplitFileFault` — one simulation rank's split file arrives
  truncated (missing) or corrupt (non-finite payload), exercising PDA's
  degraded mode.

The **service layer** breaks the serving tier around many simulations
(:mod:`repro.faults.fleet` plays them against a live fleet).  Each fault
anchors to the most deterministic clock available to it:

* :class:`StepStall` and :class:`SessionKill` pre-schedule against the
  *target session's own* adaptation-point counter through the
  :meth:`~repro.serve.session.Session.stall_step` /
  :meth:`~repro.serve.session.Session.inject_fault` seams, so they land
  at exactly the planned step however asyncio interleaves;
* :class:`SlowConsumer` and :class:`ConsumerDisconnect` attach before
  the fleet starts — their perturbation is *being there* while the
  fleet runs;
* :class:`WorkerCrash` triggers on *fleet progress* (adaptation points
  completed across all sessions): a worker-task cancellation is a
  scheduling-level event, so the verdict records only facts that survive
  the race (how many crashes fired and were restarted);
* :class:`JournalTruncate` / :class:`JournalCorrupt` also trigger on
  fleet progress: they mark when the campaign hard-stops the fleet and
  damages the journal before restarting from recovery.

Plans are data, not behaviour: building one performs no injection, so
the same plan can drive a soak run, a fleet campaign, a unit test, or a
reproduction of a production incident.  :meth:`FaultPlan.seeded` (machine
layer) and :meth:`FaultPlan.seeded_fleet` (service layer) derive
random-but-deterministic plans through :func:`repro.util.rng.make_rng`,
the only sanctioned randomness source (reprolint R001).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import make_rng

__all__ = [
    "RankCrash",
    "LinkFault",
    "RankStraggler",
    "SplitFileFault",
    "WorkerCrash",
    "StepStall",
    "SessionKill",
    "SlowConsumer",
    "ConsumerDisconnect",
    "JournalTruncate",
    "JournalCorrupt",
    "MachineFault",
    "ServiceFault",
    "FaultSpec",
    "FaultPlan",
]


def _check_step(step: int) -> None:
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")


def _check_at_step(at_step: int) -> None:
    if at_step < 1:
        raise ValueError(f"at_step must be >= 1, got {at_step}")


def _check_index(session_index: int) -> None:
    if session_index < 0:
        raise ValueError(f"session_index must be >= 0, got {session_index}")


# -- machine layer -----------------------------------------------------------


@dataclass(frozen=True)
class RankCrash:
    """Rank ``rank`` fail-stops just before adaptation point ``step``."""

    step: int
    rank: int

    def __post_init__(self) -> None:
        _check_step(self.step)
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class LinkFault:
    """Link ``link`` keeps only ``factor`` of its bandwidth from ``step`` on.

    ``factor`` in ``(0, 1)`` models congestion or a failing cable; exactly
    ``1.0`` heals the link.
    """

    step: int
    link: int
    factor: float

    def __post_init__(self) -> None:
        _check_step(self.step)
        if self.link < 0:
            raise ValueError(f"link must be >= 0, got {self.link}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")


@dataclass(frozen=True)
class RankStraggler:
    """Rank ``rank``'s per-message software cost multiplies by ``factor``."""

    step: int
    rank: int
    factor: float

    def __post_init__(self) -> None:
        _check_step(self.step)
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class SplitFileFault:
    """The split file of simulation rank ``file_index`` is damaged at ``step``.

    ``mode="truncate"`` drops the file entirely (the loader sees ``None``);
    ``mode="corrupt"`` poisons its payload with non-finite values so PDA's
    corruption detection must catch and exclude it.
    """

    step: int
    file_index: int
    mode: str = "truncate"

    def __post_init__(self) -> None:
        _check_step(self.step)
        if self.file_index < 0:
            raise ValueError(f"file_index must be >= 0, got {self.file_index}")
        if self.mode not in ("truncate", "corrupt"):
            raise ValueError(
                f"mode must be 'truncate' or 'corrupt', got {self.mode!r}"
            )


# -- service layer -----------------------------------------------------------


@dataclass(frozen=True)
class WorkerCrash:
    """Worker task ``worker`` is cancelled once the fleet completes ``at_step``.

    Exercises the supervisor: restart with seeded backoff, re-queue of
    the in-flight session exactly once, no stuck sessions.
    """

    at_step: int
    worker: int

    def __post_init__(self) -> None:
        _check_at_step(self.at_step)
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")


@dataclass(frozen=True)
class StepStall:
    """Session ``session_index`` holds its lock for ``seconds`` at ``at_step``.

    ``at_step`` counts the *target session's own* adaptation points.
    With ``seconds`` above the scheduler's step timeout this forces the
    timeout-retry path; the retry serialises behind the session lock and
    the step still completes — slow, never wrong.
    """

    at_step: int
    session_index: int
    seconds: float = 0.4

    def __post_init__(self) -> None:
        _check_at_step(self.at_step)
        _check_index(self.session_index)
        if self.seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")


@dataclass(frozen=True)
class SessionKill:
    """Session ``session_index`` dies to a rank crash at its own ``at_step``.

    Injected through the session's standard
    :class:`~repro.faults.injector.FaultInjector` seam — the serve tier
    sees a mid-run tenant death, the fleet must shrug it off.
    """

    at_step: int
    session_index: int
    rank: int = 1

    def __post_init__(self) -> None:
        _check_at_step(self.at_step)
        _check_index(self.session_index)
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class SlowConsumer:
    """An ``/events`` client that reads ``read_limit`` lines, then stalls.

    The connection stays open (unread) until the campaign ends — the
    classic slow consumer.  Only its own stream coroutine may block; the
    fleet and the drain discipline must not notice.
    """

    session_index: int
    read_limit: int = 4

    def __post_init__(self) -> None:
        _check_index(self.session_index)
        if self.read_limit < 0:
            raise ValueError(f"read_limit must be >= 0, got {self.read_limit}")


@dataclass(frozen=True)
class ConsumerDisconnect:
    """An ``/events`` client that reads ``after_lines`` lines, then vanishes.

    The abrupt close must surface as a handled connection error in the
    server, never as a worker or stream-coroutine death.
    """

    session_index: int
    after_lines: int = 2

    def __post_init__(self) -> None:
        _check_index(self.session_index)
        if self.after_lines < 0:
            raise ValueError(f"after_lines must be >= 0, got {self.after_lines}")


@dataclass(frozen=True)
class JournalTruncate:
    """The journal loses its trailing ``nbytes`` between crash and restart.

    Models a process dying mid-append: recovery must skip + count the
    half record (``journal_skipped_lines``) and re-run the affected
    sessions from their specs, bit-identically.  ``at_step`` is the fleet
    progress at which the campaign hard-stops the fleet.
    """

    at_step: int
    nbytes: int = 5

    def __post_init__(self) -> None:
        _check_at_step(self.at_step)
        if self.nbytes < 1:
            raise ValueError(f"nbytes must be >= 1, got {self.nbytes}")


@dataclass(frozen=True)
class JournalCorrupt:
    """Journal line ``line`` (1-based) is poisoned between crash and restart.

    Mid-file damage is *not* explainable by a crash mid-append, so
    recovery must refuse; the campaign then repairs by truncating at the
    poisoned line and re-creating what the lost suffix described.
    """

    at_step: int
    line: int = 2

    def __post_init__(self) -> None:
        _check_at_step(self.at_step)
        if self.line < 1:
            raise ValueError(f"line must be >= 1, got {self.line}")


MachineFault = RankCrash | LinkFault | RankStraggler | SplitFileFault
ServiceFault = (
    WorkerCrash
    | StepStall
    | SessionKill
    | SlowConsumer
    | ConsumerDisconnect
    | JournalTruncate
    | JournalCorrupt
)
FaultSpec = MachineFault | ServiceFault

_MACHINE_KINDS = (RankCrash, LinkFault, RankStraggler, SplitFileFault)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults in either layer."""

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        crashes: set[int] = set()
        for f in self.faults:
            if isinstance(f, RankCrash):
                if f.rank in crashes:
                    raise ValueError(f"rank {f.rank} crashes more than once")
                crashes.add(f.rank)
        journal_faults = [
            f for f in self.faults if isinstance(f, (JournalTruncate, JournalCorrupt))
        ]
        if len(journal_faults) > 1:
            raise ValueError(
                "at most one journal fault per plan (one crash/restart phase)"
            )
        killed = [f.session_index for f in self.faults if isinstance(f, SessionKill)]
        if len(killed) != len(set(killed)):
            raise ValueError("a session cannot be killed more than once")

    # -- machine-layer queries -------------------------------------------

    def _machine_faults(self) -> list[MachineFault]:
        """Every machine-layer fault, plan order."""
        return [f for f in self.faults if isinstance(f, _MACHINE_KINDS)]

    def at_step(self, step: int) -> list[MachineFault]:
        """Every machine fault scheduled for adaptation point ``step``, plan order."""
        return [f for f in self._machine_faults() if f.step == step]

    @property
    def last_step(self) -> int:
        """The latest step any machine fault fires at (-1 when there is none)."""
        return max((f.step for f in self._machine_faults()), default=-1)

    # -- service-layer queries -------------------------------------------

    def worker_crashes(self) -> list[WorkerCrash]:
        """Fleet-progress worker kills in deterministic firing order."""
        found = [f for f in self.faults if isinstance(f, WorkerCrash)]
        return sorted(found, key=lambda f: (f.at_step, f.worker))

    def stalls(self) -> list[StepStall]:
        found = [f for f in self.faults if isinstance(f, StepStall)]
        return sorted(found, key=lambda f: (f.session_index, f.at_step))

    def kills(self) -> list[SessionKill]:
        found = [f for f in self.faults if isinstance(f, SessionKill)]
        return sorted(found, key=lambda f: (f.session_index, f.at_step))

    def consumers(self) -> list[SlowConsumer | ConsumerDisconnect]:
        """Consumer faults, deterministic attach order."""
        found = [
            f for f in self.faults if isinstance(f, (SlowConsumer, ConsumerDisconnect))
        ]
        return sorted(found, key=repr)

    def journal_fault(self) -> JournalTruncate | JournalCorrupt | None:
        for f in self.faults:
            if isinstance(f, (JournalTruncate, JournalCorrupt)):
                return f
        return None

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    # -- seeded constructors ---------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_steps: int,
        nranks: int,
        nlinks: int = 0,
        n_crashes: int = 2,
        n_link_faults: int = 0,
        n_stragglers: int = 0,
        n_file_faults: int = 0,
        first_step: int = 1,
    ) -> "FaultPlan":
        """A deterministic random machine-layer plan (the soak suites').

        Crashed ranks are drawn without replacement and never include rank
        0 (the root of gathers, whose loss is out of the fail-stop model's
        scope); fault steps land in ``[first_step, n_steps)`` so the first
        allocation always exists before anything breaks.
        """
        if n_steps <= first_step:
            raise ValueError(
                f"need n_steps > first_step, got {n_steps} <= {first_step}"
            )
        if n_crashes >= nranks:
            raise ValueError(
                f"cannot crash {n_crashes} of {nranks} ranks"
            )
        rng = make_rng(seed)
        faults: list[FaultSpec] = []

        def step() -> int:
            return int(rng.integers(first_step, n_steps))

        crash_ranks = rng.choice(nranks - 1, size=n_crashes, replace=False) + 1
        for rank in sorted(int(r) for r in crash_ranks):
            faults.append(RankCrash(step=step(), rank=rank))
        for _ in range(n_link_faults):
            if nlinks < 1:
                raise ValueError("n_link_faults > 0 needs nlinks >= 1")
            faults.append(
                LinkFault(
                    step=step(),
                    link=int(rng.integers(0, nlinks)),
                    factor=float(rng.uniform(0.2, 0.8)),
                )
            )
        for _ in range(n_stragglers):
            faults.append(
                RankStraggler(
                    step=step(),
                    rank=int(rng.integers(0, nranks)),
                    factor=float(rng.uniform(1.5, 4.0)),
                )
            )
        for _ in range(n_file_faults):
            faults.append(
                SplitFileFault(
                    step=step(),
                    file_index=int(rng.integers(0, nranks)),
                    mode="truncate" if bool(rng.integers(0, 2)) else "corrupt",
                )
            )
        return cls(faults=tuple(faults))

    @classmethod
    def seeded_fleet(
        cls,
        seed: int,
        n_sessions: int,
        n_steps: int,
        workers: int,
        n_worker_crashes: int = 1,
        n_stalls: int = 1,
        n_kills: int = 1,
        stall_seconds: float = 0.4,
        journal: str = "none",
    ) -> "FaultPlan":
        """A deterministic random service-layer plan (the fleet suites').

        Session-targeted faults draw their step in ``[1, n_steps - 1]``
        (the first allocation always exists before anything breaks, and a
        kill at ``n_steps - 1`` still lands).  Killed sessions are drawn
        without replacement from the *tail* of the fleet so stalls aimed
        at the head always target a session that survives to the end.  Worker crashes trigger below half the work the
        surviving sessions are guaranteed to complete, so they always
        fire.
        """
        if n_sessions < n_kills + 1:
            raise ValueError(
                f"need n_sessions > n_kills, got {n_sessions} <= {n_kills}"
            )
        if n_steps < 2:
            raise ValueError(f"need n_steps >= 2, got {n_steps}")
        if journal not in ("none", "truncate", "corrupt"):
            raise ValueError(
                f"journal must be 'none', 'truncate' or 'corrupt', got {journal!r}"
            )
        rng = make_rng(seed)
        guaranteed = (n_sessions - n_kills) * n_steps
        survivors = list(range(n_sessions - n_kills))
        victims = list(range(n_sessions - n_kills, n_sessions))

        def session_step() -> int:
            return int(rng.integers(1, n_steps))

        faults: list[FaultSpec] = []
        for _ in range(n_worker_crashes):
            faults.append(
                WorkerCrash(
                    at_step=1 + int(rng.integers(0, max(1, guaranteed // 2))),
                    worker=int(rng.integers(0, workers)),
                )
            )
        for _ in range(n_stalls):
            faults.append(
                StepStall(
                    at_step=session_step(),
                    session_index=int(rng.choice(survivors)),
                    seconds=stall_seconds,
                )
            )
        for victim in victims[:n_kills]:
            faults.append(
                SessionKill(
                    at_step=session_step(),
                    session_index=victim,
                    rank=1 + int(rng.integers(0, 3)),
                )
            )
        if journal == "truncate":
            faults.append(JournalTruncate(at_step=max(1, guaranteed // 2), nbytes=5))
        elif journal == "corrupt":
            faults.append(JournalCorrupt(at_step=max(1, guaranteed // 2), line=2))
        return cls(faults=tuple(faults))
