"""Activity-sequence graphs and dropout prediction for MOOC event logs."""

from mooctrace.events import ActivityToken, Event, RawClickEvent

__all__ = ["ActivityToken", "Event", "RawClickEvent"]

__version__ = "0.1.0"
