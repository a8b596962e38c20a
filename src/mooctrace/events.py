"""Raw event log parsing and encoding into the 15-token activity alphabet.

Input logs are JSON-lines. Clickstream lines carry ``sid``, ``t``, ``vid``,
``kind`` and, depending on kind, ``dir`` (seek) or ``rate`` (ratechange).
Forum lines carry ``sid``, ``t``, ``kind``. Parsing is lenient: malformed
lines become per-line diagnostics instead of aborting the run: bad JSON
(including an integer literal past Python's digit limit), a missing or
mistyped field, and a ``t`` or ``rate`` too large for a float.

``events_to_jsonl`` writes encoded events as fixed-format JSON lines, the
same bytes ``json.dumps(obj, sort_keys=True)`` gives for each event the
parsers can produce, without building a dict or an encoder per event.
``events_from_jsonl`` reads them back in one regex pass and refuses any
other text, naming its first bad line. It is the only reader of that format.

Records are named tuples, so ``Event``s sort by (student, timestamp, token)
without a key function.

Tokens are ints: ``ActivityToken`` is an ``IntEnum`` over 0..14, so a token is
its own index into per-token lists, and tokens sort by value (video first).
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple


class ActivityToken(IntEnum):
    """One of the 15 canonical activity symbols (8 video, 7 forum).

    Values fix the canonical tie-break order used throughout:
    video tokens sort before forum tokens.
    """

    PL = 0   # play
    PA = 1   # pause
    FW = 2   # seek forward
    BW = 3   # seek backward
    FS = 4   # scroll forward (grouped seeks)
    BS = 5   # scroll backward
    RCI = 6  # ratechange increase
    RCD = 7  # ratechange decrease
    Po = 8   # post
    Co = 9   # comment
    Th = 10  # thread start
    Uv = 11  # upvote
    Dv = 12  # downvote
    Vf = 13  # view forum
    Vt = 14  # view thread


VIDEO_TOKENS = frozenset(
    {ActivityToken.PL, ActivityToken.PA, ActivityToken.FW, ActivityToken.BW,
     ActivityToken.FS, ActivityToken.BS, ActivityToken.RCI, ActivityToken.RCD}
)
FORUM_TOKENS = frozenset(set(ActivityToken) - VIDEO_TOKENS)

PASSIVE_VIDEO = frozenset({ActivityToken.PL, ActivityToken.PA})
ACTIVE_VIDEO = frozenset(VIDEO_TOKENS - PASSIVE_VIDEO)
ACTIVE_FORUM = frozenset({ActivityToken.Po, ActivityToken.Co, ActivityToken.Th})
PASSIVE_FORUM = frozenset(FORUM_TOKENS - ACTIVE_FORUM)

# JSON `kind` values accepted by the parsers.
CLICK_KINDS = ("play", "pause", "seek", "ratechange")
FORUM_KIND_TO_TOKEN = {
    "post": ActivityToken.Po,
    "comment": ActivityToken.Co,
    "thread": ActivityToken.Th,
    "upvote": ActivityToken.Uv,
    "downvote": ActivityToken.Dv,
    "viewforum": ActivityToken.Vf,
    "viewthread": ActivityToken.Vt,
}

SEEK_DIRECTIONS = ("forward", "backward")

# Two same-direction seeks less than this many seconds apart group into a scroll.
SCROLL_GAP_SECONDS = 1.0

# Playrate at the start of every video session.
INITIAL_PLAYRATE = 1.0


class RawClickEvent(NamedTuple):
    """A single video clickstream event before encoding."""

    student_id: int
    video_id: str
    timestamp: float
    kind: str  # one of CLICK_KINDS
    seek_direction: str | None = None  # required iff kind == "seek"
    playrate: float | None = None      # required iff kind == "ratechange"


class RawForumEvent(NamedTuple):
    """A single discussion forum event before encoding."""

    student_id: int
    timestamp: float
    kind: str  # key of FORUM_KIND_TO_TOKEN


class Event(NamedTuple):
    """Canonical encoded record: who did which activity when.

    Tuple order is (student, timestamp, token), the order events are stored in.
    """

    student_id: int
    timestamp: float
    token: ActivityToken


@dataclass(frozen=True)
class ParseDiagnostic:
    """Reason a log line was rejected, with its 1-based line number."""

    line_no: int
    reason: str

    def to_json_obj(self) -> dict:
        return {"line": self.line_no, "reason": self.reason}


def _to_float(x: int | float) -> float:
    """float(x), with an int beyond float range (such as 10**400) read as inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _parse_common(obj: dict) -> tuple[int, float]:
    """Validate and extract the sid/t fields shared by both log kinds."""
    if "sid" not in obj:
        raise ValueError("missing field 'sid'")
    sid = obj["sid"]
    if isinstance(sid, bool) or not isinstance(sid, int):
        raise ValueError("sid must be an integer")
    if "t" not in obj:
        raise ValueError("missing field 't'")
    t = obj["t"]
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ValueError("t must be a number")
    t = _to_float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError("t must be a finite non-negative number")
    return sid, t


def _parse_click_line(obj: dict) -> RawClickEvent:
    sid, t = _parse_common(obj)
    kind = obj.get("kind")
    if kind not in CLICK_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    vid = obj.get("vid")
    if vid is None:
        raise ValueError("missing field 'vid'")
    if not isinstance(vid, str):
        raise ValueError("vid must be a string")
    direction = None
    rate = None
    if kind == "seek":
        direction = obj.get("dir")
        if direction is None:
            raise ValueError("seek missing direction")
        if direction not in SEEK_DIRECTIONS:
            raise ValueError(f"invalid seek direction {direction!r}")
    elif kind == "ratechange":
        rate = obj.get("rate")
        if rate is None:
            raise ValueError("ratechange missing rate")
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ValueError("rate must be a number")
        rate = _to_float(rate)
        if not math.isfinite(rate) or rate <= 0:
            raise ValueError("rate must be a positive number")
    return RawClickEvent(sid, vid, t, kind, direction, rate)


def _parse_forum_line(obj: dict) -> RawForumEvent:
    sid, t = _parse_common(obj)
    kind = obj.get("kind")
    if kind not in FORUM_KIND_TO_TOKEN:
        raise ValueError(f"unknown kind {kind!r}")
    return RawForumEvent(sid, t, kind)


def _parse_log(stream, parse_line) -> tuple[list, list[ParseDiagnostic]]:
    events = []
    diagnostics = []
    for line_no, raw in enumerate(stream, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            diagnostics.append(ParseDiagnostic(line_no, "line is not valid UTF-8"))
            continue
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
            diagnostics.append(ParseDiagnostic(line_no, f"invalid JSON: {msg}"))
            continue
        if not isinstance(obj, dict):
            diagnostics.append(ParseDiagnostic(line_no, "line is not a JSON object"))
            continue
        try:
            events.append(parse_line(obj))
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
    return events, diagnostics


def parse_clickstream_log(stream) -> tuple[list[RawClickEvent], list[ParseDiagnostic]]:
    """Parse a JSON-lines clickstream log, collecting per-line diagnostics.

    ``stream`` yields lines as bytes (a file opened ``"rb"``), each decoded
    as UTF-8. Well-formed lines become events in file order; malformed lines
    never abort the parse. I/O errors from the stream propagate.
    """
    return _parse_log(stream, _parse_click_line)


def parse_forum_log(stream) -> tuple[list[RawForumEvent], list[ParseDiagnostic]]:
    """Parse a JSON-lines forum log, collecting per-line diagnostics."""
    return _parse_log(stream, _parse_forum_line)


def filter_valid_videos(
    events: list[RawClickEvent], min_unique_viewers: int = 10
) -> list[RawClickEvent]:
    """Keep only events of videos watched by >= min_unique_viewers students."""
    if min_unique_viewers < 1:
        raise ValueError("min_unique_viewers must be >= 1")
    viewers: dict[str, set[int]] = defaultdict(set)
    for ev in events:
        viewers[ev.video_id].add(ev.student_id)
    valid = {vid for vid, sids in viewers.items() if len(sids) >= min_unique_viewers}
    return [ev for ev in events if ev.video_id in valid]


_SEEK_TOKEN = {
    ("forward", False): ActivityToken.FW,
    ("forward", True): ActivityToken.FS,
    ("backward", False): ActivityToken.BW,
    ("backward", True): ActivityToken.BS,
}


def encode_clickstream(events: list[RawClickEvent]) -> tuple[list[Event], int]:
    """Encode one student's time-sorted clickstream into activity tokens.

    Seek runs: a maximal run of >= 2 consecutive same-direction seeks with
    gaps under one second collapses into a single scroll token (FS/BS)
    stamped with the run's first timestamp; an isolated seek maps to FW/BW.
    A run breaks on direction change, on a gap >= 1 s, on any intervening
    non-seek event, and on a video change.

    Ratechanges compare against the most recent playrate of the current
    video session (initially 1.0, reset whenever the video id changes) and
    emit RCI/RCD. Equal-rate changes carry no direction; they are dropped
    and counted in the returned second element.
    """
    out: list[Event] = []
    dropped_equal_rate = 0

    # Pending seek run: (direction, first_ts, last_ts, count).
    run: tuple[str, float, float, int] | None = None
    session_vid: str | None = None
    session_rate = INITIAL_PLAYRATE

    def flush_run() -> None:
        nonlocal run
        if run is None:
            return
        direction, first_ts, _, count = run
        token = _SEEK_TOKEN[(direction, count >= 2)]
        out.append(Event(sid, first_ts, token))
        run = None

    sid = events[0].student_id if events else 0
    for ev in events:
        sid = ev.student_id
        if ev.video_id != session_vid:
            # New video session: grouping and playrate state reset.
            flush_run()
            session_vid = ev.video_id
            session_rate = INITIAL_PLAYRATE
        if ev.kind == "seek":
            if run is not None:
                direction, first_ts, last_ts, count = run
                if ev.seek_direction == direction and ev.timestamp - last_ts < SCROLL_GAP_SECONDS:
                    run = (direction, first_ts, ev.timestamp, count + 1)
                    continue
                flush_run()
            run = (ev.seek_direction, ev.timestamp, ev.timestamp, 1)
            continue
        flush_run()
        if ev.kind == "play":
            out.append(Event(sid, ev.timestamp, ActivityToken.PL))
        elif ev.kind == "pause":
            out.append(Event(sid, ev.timestamp, ActivityToken.PA))
        elif ev.kind == "ratechange":
            if ev.playrate > session_rate:
                out.append(Event(sid, ev.timestamp, ActivityToken.RCI))
            elif ev.playrate < session_rate:
                out.append(Event(sid, ev.timestamp, ActivityToken.RCD))
            else:
                dropped_equal_rate += 1
            session_rate = ev.playrate
        else:  # pragma: no cover - parser only admits known kinds
            raise ValueError(f"unknown click kind {ev.kind!r}")
    flush_run()
    return out, dropped_equal_rate


def encode_forum(events: list[RawForumEvent]) -> list[Event]:
    """Encode forum events 1:1 into tokens, timestamps preserved."""
    return [
        Event(ev.student_id, ev.timestamp, FORUM_KIND_TO_TOKEN[ev.kind])
        for ev in events
    ]


def encode_events(
    click_events: list[RawClickEvent], forum_events: list[RawForumEvent]
) -> tuple[list[Event], int]:
    """Encode both sources across all students.

    Clickstream events are grouped per student and time-sorted before
    encoding (scroll grouping and playrate sessions are per-student).
    The combined result is sorted by (student, timestamp, token order)
    so downstream output is reproducible byte-for-byte.
    """
    by_student: dict[int, list[RawClickEvent]] = defaultdict(list)
    for ev in click_events:
        by_student[ev.student_id].append(ev)

    encoded: list[Event] = []
    dropped = 0
    for sid in sorted(by_student):
        ordered = sorted(by_student[sid], key=lambda e: e.timestamp)
        events, n = encode_clickstream(ordered)
        encoded.extend(events)
        dropped += n
    encoded.extend(encode_forum(forum_events))
    encoded.sort()  # by (student, timestamp, token)
    return encoded, dropped


def events_to_jsonl(events: Iterable[Event]) -> str:
    """One `{"sid": ..., "t": ..., "token": ...}` line per event.

    Equal to ``json.dumps(obj, sort_keys=True)`` plus a newline for every
    event the parsers produce: an int sid, and a finite float t, which
    ``repr`` writes as json does.
    """
    return "".join(
        f'{{"sid": {e.student_id}, "t": {e.timestamp!r}, "token": "{e.token.name}"}}\n'
        for e in events
    )


# Exactly one line as events_to_jsonl writes it: sid in JSON integer grammar but
# for -0, t as repr writes a finite non-negative float or the literal -0.0 (ingest
# admits a raw t of -0.0 and writes it back as such), and a bare token name.
# [0-9], not \d, which also matches non-ASCII digits.
_EVENT_LINE = re.compile(
    r'^\{"sid": (0|-?[1-9][0-9]*), '
    r'"t": ([0-9]+\.[0-9]+|[0-9](?:\.[0-9]+)?e[-+][0-9]{2,3}|-0\.0), '
    r'"token": "([A-Za-z]+)"\}\n',
    re.MULTILINE,
)
_TOKENS = {token.name: token for token in ActivityToken}


def events_from_jsonl(text: str) -> list[Event]:
    """The events of an events.jsonl text, in file order.

    Reads what ``events_to_jsonl`` writes in one regex pass. Any other text
    (other spacing or key order, a blank line, CRLF, no final newline, a
    non-finite t, an sid past the int digit limit, an unknown token) raises
    a ValueError naming its first bad line, found line by line only then.
    """
    rows = _EVENT_LINE.findall(text)
    # Each match is one whole line, so equal counts mean every line matched.
    if len(rows) == text.count("\n") and text[-1:] in ("", "\n"):
        try:
            events = [Event(int(sid), float(t), _TOKENS[name]) for sid, t, name in rows]
        except (KeyError, ValueError):  # unknown token, or sid past the digit limit
            pass
        else:
            if all(math.isfinite(e.timestamp) for e in events):
                return events
    # Every line before the first bad one is plain ASCII, so splitlines'
    # extra separators can only split the bad line itself.
    for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
        match = _EVENT_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"line {line_no}: not a line as ingest writes it: {line!r:.80}")
        sid, t, name = match.groups()
        if name not in _TOKENS:
            raise ValueError(f"line {line_no}: unknown token {name!r}")
        if not math.isfinite(float(t)):
            raise ValueError(f"line {line_no}: t must be a finite number")
        try:
            int(sid)
        except ValueError as exc:  # past the int digit limit
            raise ValueError(f"line {line_no}: sid: {exc}") from exc
    raise ValueError("not an events.jsonl text as ingest writes it")
