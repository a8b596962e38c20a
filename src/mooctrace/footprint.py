"""Per-student per-week interaction footprint sequences.

A footprint sequence is the time-ordered token list of one student's
activity in one course week (Curr setup), or cumulatively from their first
active week through the current one (TCurr setup). Weeks are fixed 7-day
bins counted from a configured course start. Each sequence carries its two
1-based week numbers as ints: courseweek counts weeks since the course
started, userweek weeks since the student's first active week, so
userweek <= courseweek.
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


class NominalActivityType(str, Enum):
    """Which activity sources appear in a sequence."""

    VIDEO_ONLY = "video_only"
    FORUM_ONLY = "forum_only"
    BOTH = "both"


@dataclass(frozen=True)
class FootprintSequence:
    student_id: int
    courseweek: int
    userweek: int
    setup: Setup
    tokens: tuple[ActivityToken, ...]


def assign_week(timestamp: float, course_start: float) -> int:
    """Course week (1-based) containing a timestamp; week boundaries are exact."""
    if timestamp < course_start:
        raise ValueError(
            f"event at {timestamp} predates course start {course_start}"
        )
    return int((timestamp - course_start) // SECONDS_PER_WEEK) + 1


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
        sequences[(sid, week)] = FootprintSequence(sid, week, userweek, Setup.CURR, tokens)
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
            sequences[(sid, week)] = FootprintSequence(
                sid, week, seq.userweek, Setup.TCURR, tuple(prefix)
            )
    return sequences


def nominal_activity_type(tokens) -> NominalActivityType:
    """Classify a non-empty token sequence by which token sources appear."""
    has_video = any(t in VIDEO_TOKENS for t in tokens)
    has_forum = any(t in FORUM_TOKENS for t in tokens)
    if has_video and has_forum:
        return NominalActivityType.BOTH
    if has_video:
        return NominalActivityType.VIDEO_ONLY
    if has_forum:
        return NominalActivityType.FORUM_ONLY
    raise ValueError("an empty token sequence has no activity type")


# Each token's name as a JSON string, indexed by token.
_QUOTED_NAMES = [f'"{token.name}"' for token in ActivityToken]


def sequences_to_jsonl(seqs: Iterable[FootprintSequence]) -> str:
    """One JSON line per sequence, keys sorted.

    The same bytes as ``json.dumps(obj, sort_keys=True)`` plus a newline for
    the object with keys courseweek, setup, sid, tokens (names) and userweek:
    every value is an int, an ASCII name or a list of names.
    """
    lines = []
    for seq in seqs:
        tokens = ", ".join(map(_QUOTED_NAMES.__getitem__, seq.tokens))
        lines.append(
            f'{{"courseweek": {seq.courseweek}, "setup": "{seq.setup.value}", '
            f'"sid": {seq.student_id}, "tokens": [{tokens}], '
            f'"userweek": {seq.userweek}}}\n'
        )
    return "".join(lines)
