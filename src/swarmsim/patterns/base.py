"""Behavior protocol.

A pattern is one object per robot, holding its parameters and its state,
and its tick is called once per control period with the freshest scan and
the votes drained from its mailbox. Movement patterns return a drive
command every tick, or a field request that the simulator resolves on the
scan; voting patterns return only the opinions to publish, which the
simulator wraps as vote envelopes. The combined pattern (see combined.py)
votes and then moves inside one tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..bus import Envelope
from ..core import DriveCommand, FieldRequest, ScanSnapshot

# Vote envelopes drained from the robot's mailbox this tick, in publish order.
Inbox = Sequence[Envelope]


@dataclass
class TickResult:
    command: DriveCommand | FieldRequest | None = None
    messages: list[int] = field(default_factory=list)


class Pattern:
    """Base behavior. Subclasses implement tick().

    read_range is the largest distance whose reading can change the tick or
    its field request. The simulator senses only as far as it reads at
    build, and a tick raises if it reads farther since (see
    ``Simulation.reach``), so a subclass that reads its scan declares it;
    the default reads the full sensor range. reads_scan says whether tick
    reads its scan: the simulator hands a behavior that declares it False
    None in place of a scan. The default reads it.
    """

    read_range = math.inf
    reads_scan = True

    def tick(self, scan: ScanSnapshot | None, now: float, dt: float, inbox: Inbox) -> TickResult:
        raise NotImplementedError

    @property
    def opinion(self) -> int | None:
        """Current opinion for voting-capable behaviors, else None."""
        return None
