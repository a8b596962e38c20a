"""Raw event log parsing and encoding into the 15-token activity alphabet.

Input logs are JSON-lines. Clickstream lines carry ``sid``, ``t``, ``vid``,
``kind`` and, depending on kind, ``dir`` (seek) or ``rate`` (ratechange), and
parse to ``RawClickEvent``s. Forum lines carry ``sid``, ``t``, ``kind``, and
parse straight to ``Event``s, one token per kind. ``encode_clickstream``
encodes clicks sorted by (student, timestamp) in one pass (seek runs,
playrate sessions); ``encode_events`` sorts the clicks so, encodes them and
merges the forum events in with one sort. Parsing is lenient: malformed
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
from enum import IntEnum
from operator import itemgetter
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

# JSON `dir` values of a seek, each with its tokens: (isolated seek, scroll).
_SEEK_TOKENS = {
    "forward": (ActivityToken.FW, ActivityToken.FS),
    "backward": (ActivityToken.BW, ActivityToken.BS),
}
SEEK_DIRECTIONS = tuple(_SEEK_TOKENS)

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


class Event(NamedTuple):
    """Canonical encoded record: who did which activity when.

    Tuple order is (student, timestamp, token), the order events are stored in.
    """

    student_id: int
    timestamp: float
    token: ActivityToken


class ParseDiagnostic(NamedTuple):
    """Reason a log line was rejected, with its 1-based line number."""

    line_no: int
    reason: str


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
        if direction not in _SEEK_TOKENS:
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


def _parse_forum_line(obj: dict) -> Event:
    sid, t = _parse_common(obj)
    kind = obj.get("kind")
    if kind not in FORUM_KIND_TO_TOKEN:
        raise ValueError(f"unknown kind {kind!r}")
    return Event(sid, t, FORUM_KIND_TO_TOKEN[kind])


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


def parse_forum_log(stream) -> tuple[list[Event], list[ParseDiagnostic]]:
    """Parse a JSON-lines forum log into encoded events, collecting per-line
    diagnostics. A forum kind maps 1:1 to its token, timestamp kept."""
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


def encode_clickstream(events: list[RawClickEvent]) -> tuple[list[Event], int]:
    """Encode clicks sorted by (student, timestamp) into activity tokens.

    A video session is one student's consecutive clicks on one video. Within
    a session, a maximal run of >= 2 consecutive same-direction seeks with
    gaps under one second collapses into a single scroll token (FS/BS)
    stamped with the run's first timestamp; an isolated seek maps to FW/BW.
    A run breaks on direction change, on a gap >= 1 s, on any intervening
    non-seek click, and with its session.

    Ratechanges compare against the most recent playrate of the session
    (initially 1.0) and emit RCI/RCD. Equal-rate changes carry no direction;
    they are dropped and counted in the returned second element.
    """
    out: list[Event] = []
    dropped_equal_rate = 0
    session_sid = session_vid = run_direction = None
    for sid, vid, t, kind, direction, rate in events:
        if vid != session_vid or sid != session_sid:
            session_sid, session_vid, session_rate = sid, vid, INITIAL_PLAYRATE
            run_direction = None
        if kind == "seek":
            single, scroll = _SEEK_TOKENS[direction]
            if direction == run_direction and t - run_t < SCROLL_GAP_SECONDS:
                out[-1] = Event(sid, out[-1].timestamp, scroll)  # the run's token
            else:
                out.append(Event(sid, t, single))
            run_direction, run_t = direction, t
            continue
        run_direction = None
        if kind == "play":
            out.append(Event(sid, t, ActivityToken.PL))
        elif kind == "pause":
            out.append(Event(sid, t, ActivityToken.PA))
        else:  # ratechange
            if rate > session_rate:
                out.append(Event(sid, t, ActivityToken.RCI))
            elif rate < session_rate:
                out.append(Event(sid, t, ActivityToken.RCD))
            else:
                dropped_equal_rate += 1
            session_rate = rate
    return out, dropped_equal_rate


def encode_events(
    click_events: list[RawClickEvent], forum_events: list[Event]
) -> tuple[list[Event], int]:
    """Encode the clickstream across all students and merge in the forum events.

    The clicks, in any order, are stably sorted by (student, timestamp) and
    encoded in one pass. Forum events come encoded from parse_forum_log. The
    combined result is sorted by (student, timestamp, token order) so
    downstream output is reproducible byte-for-byte.
    """
    encoded, dropped = encode_clickstream(sorted(click_events, key=itemgetter(0, 2)))
    encoded += forum_events
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
    try:
        events = [
            Event(int(sid), float(t), _TOKENS[name])
            for sid, t, name in map(re.Match.groups, _EVENT_LINE.finditer(text))
        ]
    except (KeyError, ValueError):  # unknown token, or sid past the digit limit
        pass
    else:
        # Each match is one whole line, so equal counts mean every line matched.
        if (
            len(events) == text.count("\n") and text[-1:] in ("", "\n")
            and all(math.isfinite(e.timestamp) for e in events)
        ):
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
