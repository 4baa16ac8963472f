"""The simulator's tick in its plainest form, built only from the per-robot
forms the package keeps, to check whole runs of the fast ``Simulation.step``
against, trace cell by trace cell."""

from __future__ import annotations

import math

import numpy as np

from swarmsim.bus import Envelope, MessageBus, VOTE_TOPIC
from swarmsim.core import FieldRequest, Pose2D, ScanSnapshot, nearest_obstacle
from swarmsim.protection import arbitrate, avoidance_command, note_command, triggered
from swarmsim.sim import raycast, resolve_wall_contact
from swarmsim.trace import COLUMN_NAMES


def reference_scans(poses, radii, walls, spec) -> list[np.ndarray]:
    """raycast per robot (x, y, theta) over every wall and every other body,
    cut at range_max."""
    bodies = [(x, y, r) for (x, y, _), r in zip(poses, radii)]
    scans = []
    for i, (x, y, theta) in enumerate(poses):
        circles = np.array(bodies[:i] + bodies[i + 1 :]).reshape(-1, 3)
        dist = raycast((x, y), theta, spec.beam_count, walls, circles)
        scans.append(np.where(dist > spec.range_max, np.inf, dist))
    return scans


def reference_run(world, nodes, spec, ticks: int) -> dict[str, list[str]]:
    """Run ticks ticks from the world's poses and tick count with the given
    nodes, and return the trace as {column: float.hex of each cell}, in the
    order of ``Simulation.columns``. The nodes' behaviors and protection
    states advance; the world is left as it is.

    None of the fast tick's cuts: no sense reuse, reach cut or wall bound,
    every behavior gets its scan, a field request is resolved on it with
    ``FieldRequest.command``, the protection check is ``nearest_obstacle``
    and ``triggered`` with ``avoidance_command``, and every robot moves by
    ``resolve_wall_contact`` on a ``Pose2D`` against every wall.
    """
    poses = [Pose2D(*row) for row in world.poses.tolist()]
    radii, walls, dt = world.radii.tolist(), world.walls, world.dt
    bus, rows = MessageBus(len(nodes)), []
    for tick in range(world.tick + 1, world.tick + ticks + 1):
        now = (tick - 1) * dt
        scans = [
            ScanSnapshot(ranges, 0.0, math.tau / spec.beam_count, spec.range_min, spec.range_max)
            for ranges in reference_scans([(p.x, p.y, p.theta) for p in poses], radii, walls, spec)
        ]
        commands = []
        for i, (node, scan, mailbox) in enumerate(zip(nodes, scans, bus.mailboxes)):
            result = node.behavior.tick(scan, now, dt, mailbox.drain())
            for opinion in result.messages:
                bus.publish(Envelope(VOTE_TOPIC, opinion, i, now))
            cmd = result.command
            commands.append(cmd.command(scan) if isinstance(cmd, FieldRequest) else cmd)
        for i, (node, scan, cmd) in enumerate(zip(nodes, scans, commands)):
            state, nearest = node.protection, nearest_obstacle(scan)
            fired = triggered(state, math.inf if nearest is None else nearest[0])
            avoid = avoidance_command(state, scan) if fired else None
            if cmd is not None:
                note_command(state, cmd, now)
            actuator = arbitrate(state, now, avoid)
            poses[i] = p = resolve_wall_contact(poses[i], actuator, dt, radii[i], walls)
            pattern = (math.nan, math.nan) if cmd is None else (cmd.linear, cmd.angular)
            opinion = math.nan if node.behavior.opinion is None else node.behavior.opinion
            rows.append((tick, i, tick * dt, p.x, p.y, p.theta, *pattern,
                         actuator.linear, actuator.angular, avoid is not None, opinion))
    columns = zip(*rows) if rows else [()] * len(COLUMN_NAMES)
    return {name: [float(v).hex() for v in column] for name, column in zip(COLUMN_NAMES, columns)}
