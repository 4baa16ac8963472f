"""Behavioral primitives for LiDAR-only swarm robots, with a small 2D simulator.

The package splits into a hardware-facing layer (potential fields, drive
mapping, collision protection, message bus, behavior patterns) and a
simulation layer (unicycle kinematics, raycast scans, trace recording,
metrics). Scenario presets under swarmsim/scenarios reproduce the bundled
experiments; the `swarmsim` CLI runs, replays, and scores them.
"""

from .bus import Envelope, MessageBus, VOTE_TOPIC
from .core import (
    ATTRACTIVE,
    REPULSIVE,
    STOP,
    DriveCommand,
    DriveLimits,
    Pose2D,
    ScanSnapshot,
    Vector2,
    ZERO_VECTOR,
    nearest_obstacle,
    potential_field,
    vector_to_drive,
    wrap_angle,
)
from .metrics import MetricsReport, compute_metrics
from .platforms import PATTERN_DEFAULTS, PLATFORMS, PlatformSpec
from .protection import ProtectionState, arbitrate, avoidance_command, triggered
from .scenario import ScenarioConfig, build_simulation, from_meta, load_scenario, run
from .sim import RobotNode, Simulation, WorldState, integrate_pose, raycast
from .trace import Trace, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "ATTRACTIVE",
    "REPULSIVE",
    "STOP",
    "ZERO_VECTOR",
    "DriveCommand",
    "DriveLimits",
    "Envelope",
    "MessageBus",
    "MetricsReport",
    "PATTERN_DEFAULTS",
    "PLATFORMS",
    "PlatformSpec",
    "Pose2D",
    "ProtectionState",
    "RobotNode",
    "ScanSnapshot",
    "ScenarioConfig",
    "Simulation",
    "Trace",
    "VOTE_TOPIC",
    "Vector2",
    "WorldState",
    "arbitrate",
    "avoidance_command",
    "build_simulation",
    "compute_metrics",
    "from_meta",
    "integrate_pose",
    "load_scenario",
    "nearest_obstacle",
    "potential_field",
    "raycast",
    "read_trace",
    "run",
    "triggered",
    "vector_to_drive",
    "wrap_angle",
    "write_trace",
    "__version__",
]
