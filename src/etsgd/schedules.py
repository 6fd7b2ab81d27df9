"""Round budgets and step sizes.

A sample schedule fixes how many local SGD steps a node runs in each
communication round.  Rounds are zero-based everywhere; growing schedules
evaluate their formula at ``round_index + 1`` so round 0 already carries a
nonzero budget.  round_plan is the one place that turns a schedule and an
iteration budget into rounds; everything else, node.setup included, reads
its sizes and start iterations.  A step schedule maps a step count t to a
learning rate.  Its callers pass one node's own step count, not a global
iteration: a round's rate is the value at the number of steps the node
took before that round, and it is held constant within the round.

Schedule mini-grammar used by config files and the command line:

    linear:a,p,b      budget a*(i+1)**p + b
    const:s           budget s every round
    thetalog:scale    budget scale*(i+1)/ln(i+2)

    diminishing:eta0,beta   rate eta0 / (1 + beta*sqrt(t))
    invtime:eta0,eps        rate eta0 / (eps*t + 1)
    damped:eta0,eps         rate 2.252*eta0 / (eps*t + 1)**0.1
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class ScheduleError(ValueError):
    """Raised for schedule parameters that cannot produce a valid run."""


@dataclass(frozen=True)
class Linear:
    """Per-round budget a*(i+1)**p + b for zero-based round i."""

    a: float
    p: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.a, self.p, self.b)):  # NaN fails too
            raise ScheduleError("linear schedule needs finite a >= 0, p >= 0, b >= 0")
        if self.a == 0 and self.b == 0:
            raise ScheduleError("linear schedule with a=0 and b=0 produces empty rounds")


@dataclass(frozen=True)
class Constant:
    """The same budget s for every round."""

    s: int

    def __post_init__(self):
        if not (1 <= self.s < math.inf and self.s == int(self.s)):  # NaN fails too
            raise ScheduleError(f"constant schedule needs a whole number s >= 1, got {self.s:g}")
        object.__setattr__(self, "s", int(self.s))  # the parser passes 3.0 for const:3


@dataclass(frozen=True)
class LogDamped:
    """Budget scale*(i+1)/ln(i+2): near-linear growth with a log damping."""

    scale: float

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # NaN fails too
            raise ScheduleError(f"logdamped schedule needs a finite scale > 0, got {self.scale}")


SampleSchedule = Linear | Constant | LogDamped


def sample_size(sched: SampleSchedule, round_index: int) -> int:
    """Number of local steps in the given round.

    Non-integer formula values round half-up; every round has at least one
    step.
    """
    if round_index < 0:
        raise ScheduleError(f"round_index must be >= 0, got {round_index}")
    if isinstance(sched, Constant):
        return sched.s
    if isinstance(sched, Linear):
        value = sched.a * float(round_index + 1) ** sched.p + sched.b
    elif isinstance(sched, LogDamped):
        value = sched.scale * (round_index + 1) / math.log(round_index + 2)
    else:
        raise TypeError(f"not a sample schedule: {sched!r}")
    return max(1, math.floor(value + 0.5))


def round_plan(sched: SampleSchedule, total_iterations: int) -> tuple[list[int], list[int]]:
    """(sizes, starts) of the fewest rounds that cover an iteration budget.

    starts[i] is the number of iterations before round i, counted as
    total_iterations is: the harness passes one node's budget, so a start
    is that node's own step count.  The last round is trimmed so the sizes
    sum to exactly total_iterations; every other round takes the schedule's
    full budget.  A zero budget has no rounds.
    """
    if total_iterations < 0:
        raise ScheduleError(f"total_iterations must be >= 0, got {total_iterations}")
    sizes: list[int] = []
    starts: list[int] = []
    done = 0
    while done < total_iterations:
        starts.append(done)
        sizes.append(min(sample_size(sched, len(sizes)), total_iterations - done))
        done += sizes[-1]
    return sizes, starts


@dataclass(frozen=True)
class Diminishing:
    """Rate eta0 / (1 + beta*sqrt(t)); beta=0 gives a constant rate."""

    eta0: float
    beta: float = 0.0

    def __post_init__(self):
        if not (0 < self.eta0 < math.inf and 0 <= self.beta < math.inf):  # NaN fails too
            raise ScheduleError("diminishing rate needs finite eta0 > 0 and beta >= 0")


@dataclass(frozen=True)
class InverseTime:
    """Rate eta0 / (eps*t + 1), the gradient rate of the threshold baseline."""

    eta0: float
    epsilon: float = 1e-5

    def __post_init__(self):
        if not (0 < self.eta0 < math.inf and 0 <= self.epsilon < math.inf):  # NaN fails too
            raise ScheduleError("inverse-time rate needs finite eta0 > 0 and epsilon >= 0")


@dataclass(frozen=True)
class DampedInverseTime:
    """Rate 2.252*eta0 / (eps*t + 1)**0.1, the mixing rate of the threshold baseline."""

    eta0: float
    epsilon: float = 1e-5

    def __post_init__(self):
        if not (0 < self.eta0 < math.inf and 0 <= self.epsilon < math.inf):  # NaN fails too
            raise ScheduleError("damped inverse-time rate needs finite eta0 > 0 and epsilon >= 0")


StepSchedule = Diminishing | InverseTime | DampedInverseTime


def step_size(sched: StepSchedule, t: int | float) -> float:
    """Learning rate at step count t, one node's own steps so far."""
    if t < 0:
        raise ScheduleError(f"iteration must be >= 0, got {t}")
    if isinstance(sched, Diminishing):
        return sched.eta0 / (1.0 + sched.beta * math.sqrt(t))
    if isinstance(sched, InverseTime):
        return sched.eta0 / (sched.epsilon * t + 1.0)
    if isinstance(sched, DampedInverseTime):
        return 2.252 * sched.eta0 / (sched.epsilon * t + 1.0) ** 0.1
    raise TypeError(f"not a step schedule: {sched!r}")


# each grammar's kinds: the schedule class and the names of its arguments
_SAMPLE_KINDS = {"linear": (Linear, "a,p,b"), "const": (Constant, "s"),
                 "thetalog": (LogDamped, "scale")}
_STEP_KINDS = {"diminishing": (Diminishing, "eta0,beta"), "invtime": (InverseTime, "eta0,eps"),
               "damped": (DampedInverseTime, "eta0,eps")}


def _parse(text: str, what: str, kinds: dict):
    kind, _, args = text.partition(":")
    cls, names = kinds.get(kind, (None, ""))
    try:
        parts = [float(x) for x in args.split(",")] if args else []
        if cls is not None and len(parts) == len(names.split(",")):
            return cls(*parts)
    except (ValueError, ScheduleError) as exc:
        raise ScheduleError(f"bad {what} schedule {text!r}: {exc}") from None
    expected = " | ".join(f"{k}:{names}" for k, (_, names) in kinds.items())
    raise ScheduleError(f"bad {what} schedule {text!r}; expected {expected}")


def parse_sample_schedule(text: str) -> SampleSchedule:
    """Parse the sample-schedule mini-grammar, e.g. 'linear:10,1,0'."""
    return _parse(text, "sample", _SAMPLE_KINDS)


def parse_step_schedule(text: str) -> StepSchedule:
    """Parse the step-schedule mini-grammar, e.g. 'diminishing:0.01,0.01'."""
    return _parse(text, "step", _STEP_KINDS)
