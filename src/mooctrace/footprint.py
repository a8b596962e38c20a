"""Per-student per-week interaction footprint sequences.

A footprint sequence is the time-ordered token list of one student's
activity in one course week (Curr setup), or cumulatively from their first
active week through the current one (TCurr setup). Weeks are fixed 7-day
bins counted from a configured course start. Each sequence carries its two
1-based week numbers as ints: courseweek counts weeks since the course
started, userweek weeks since the student's first active week, so
userweek <= courseweek. Every sequence of a run has the run's one setup, so a
sequence does not carry it: ``sequences_to_jsonl`` takes it as an argument.
``nominal_activity_type`` names the sources a sequence uses as a plain
string: "video_only", "forum_only" or "both".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from mooctrace.events import FORUM_TOKENS, VIDEO_TOKENS, ActivityToken, Event

SECONDS_PER_WEEK = 604800


class Setup(str, Enum):
    """Which span of activity feeds feature extraction for a week."""

    CURR = "curr"    # the current participation week only
    TCURR = "tcurr"  # cumulative: first participation week through current


@dataclass(frozen=True)
class FootprintSequence:
    student_id: int
    courseweek: int
    userweek: int
    tokens: tuple[ActivityToken, ...]


def assign_week(timestamp: float, course_start: float) -> int:
    """Course week (1-based) containing a timestamp; week boundaries are exact.

    A course_start that leaves the event no finite week (NaN, -inf, or so far
    below the event that their distance overflows) raises a ValueError.
    """
    if timestamp < course_start:
        raise ValueError(
            f"event at {timestamp} predates course start {course_start}"
        )
    try:
        return int((timestamp - course_start) // SECONDS_PER_WEEK) + 1
    except ValueError:  # int(nan)
        raise ValueError(
            f"course_start {course_start} leaves the event at {timestamp} no finite week"
        ) from None


def build_curr_sequences(
    events: list[Event], course_start: float | None = None
) -> dict[tuple[int, int], FootprintSequence]:
    """Group events into one Curr sequence per (student, active week).

    Weeks with no events produce no instance. course_start defaults to the
    minimum event timestamp when not configured.
    """
    if not events:
        return {}
    if course_start is None:
        course_start = min(e.timestamp for e in events)

    by_key: dict[tuple[int, int], list[Event]] = defaultdict(list)
    for ev in events:
        by_key[(ev.student_id, assign_week(ev.timestamp, course_start))].append(ev)

    first_week: dict[int, int] = {}
    for sid, week in by_key:
        first_week[sid] = min(first_week.get(sid, week), week)

    sequences = {}
    for (sid, week), evs in by_key.items():
        # One student, so tuple order is (timestamp, token): video tokens sort
        # before forum tokens at a tie, and equal events keep input order.
        tokens = tuple(e.token for e in sorted(evs))
        userweek = week - first_week[sid] + 1
        sequences[(sid, week)] = FootprintSequence(sid, week, userweek, tokens)
    return sequences


def build_tcurr_sequences(
    curr: dict[tuple[int, int], FootprintSequence]
) -> dict[tuple[int, int], FootprintSequence]:
    """Cumulative sequences: concatenate each student's Curr weeks up to w.

    The instance key set is identical to curr's; gap weeks contribute
    nothing.
    """
    weeks_by_student: dict[int, list[int]] = defaultdict(list)
    for sid, week in curr:
        weeks_by_student[sid].append(week)

    sequences = {}
    for sid, weeks in weeks_by_student.items():
        prefix: list[ActivityToken] = []
        for week in sorted(weeks):
            seq = curr[(sid, week)]
            prefix.extend(seq.tokens)
            sequences[(sid, week)] = FootprintSequence(sid, week, seq.userweek, tuple(prefix))
    return sequences


def nominal_activity_type(tokens) -> str:
    """Which token sources a non-empty token sequence has: "video_only",
    "forum_only" or "both"."""
    has_video = any(t in VIDEO_TOKENS for t in tokens)
    has_forum = any(t in FORUM_TOKENS for t in tokens)
    if has_video and has_forum:
        return "both"
    if has_video:
        return "video_only"
    if has_forum:
        return "forum_only"
    raise ValueError("an empty token sequence has no activity type")


# Each token's name as a JSON string, indexed by token.
_QUOTED_NAMES = [f'"{token.name}"' for token in ActivityToken]


def sequences_to_jsonl(seqs: Iterable[FootprintSequence], setup: Setup) -> str:
    """One JSON line per sequence of one setup, keys sorted.

    The same bytes as ``json.dumps(obj, sort_keys=True)`` plus a newline for
    the object with keys courseweek, setup, sid, tokens (names) and userweek:
    every value is an int, an ASCII name or a list of names.
    """
    lines = []
    for seq in seqs:
        tokens = ", ".join(map(_QUOTED_NAMES.__getitem__, seq.tokens))
        lines.append(
            f'{{"courseweek": {seq.courseweek}, "setup": "{setup.value}", '
            f'"sid": {seq.student_id}, "tokens": [{tokens}], '
            f'"userweek": {seq.userweek}}}\n'
        )
    return "".join(lines)
