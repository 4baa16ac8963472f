from .base import Inbox, Pattern, TickResult
from .combined import DiscussedDispersion
from .movement import Attraction, Dispersion, Drive, Flocking, RandomWalk
from .voting import Majority, Voter, Voting

__all__ = [
    "Attraction",
    "DiscussedDispersion",
    "Dispersion",
    "Drive",
    "Flocking",
    "Inbox",
    "Majority",
    "Pattern",
    "RandomWalk",
    "TickResult",
    "Voter",
    "Voting",
]
