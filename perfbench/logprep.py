"""Preparation of synthetic JSON-lines logs: course-end trim and seeded
injection of malformed lines.

``synth`` draws each student's last week from an uncapped geometric law, so
some students stay active long past ``--weeks``; their cumulative (TCurr)
sequences made the work per seed swing by a quarter between seeds.
``trim_to_course`` drops events after the course's last week, so a workload
of N weeks holds N weeks of activity.

Every rejection reason that ``parse_clickstream_log`` and ``parse_forum_log``
document is written at least once, at seeded positions between the valid
lines, which stay untouched and in order. A few blank lines are added too;
the parsers skip them without a diagnostic. ``inject_logs`` returns the
expected diagnostic count per (source, reason), so a run can check that
``ingest`` rejected exactly the injected lines.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from random import Random

BAD_T = "t must be a finite non-negative number"


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _without(obj: dict, *keys: str) -> dict:
    return {k: v for k, v in obj.items() if k not in keys}


def _truncated(obj: dict) -> bytes:
    text = _dump(obj)
    return text[: text.rindex(b": ") + 2]  # cut after the last key


# kind -> (builder from a valid template object, reason the parser reports).
_COMMON = {
    "invalid_json": (_truncated, "invalid JSON: Expecting value"),
    "non_utf8": (lambda o: _dump(o)[:-1] + b"\xff\xfe}", "line is not valid UTF-8"),
    "non_object": (lambda o: _dump(sorted(o.items())), "line is not a JSON object"),
    "missing_sid": (lambda o: _dump(_without(o, "sid")), "missing field 'sid'"),
    "bool_sid": (lambda o: _dump(dict(o, sid=True)), "sid must be an integer"),
    "missing_t": (lambda o: _dump(_without(o, "t")), "missing field 't'"),
    "negative_t": (lambda o: _dump(dict(o, t=-o["t"])), BAD_T),
    "infinite_t": (lambda o: _dump(dict(o, t=math.inf)), BAD_T),
    "nan_t": (lambda o: _dump(dict(o, t=math.nan)), BAD_T),
}

CLICK_KINDS = dict(
    _COMMON,
    unknown_kind=(lambda o: _dump(dict(o, kind="rewind")), "unknown kind 'rewind'"),
    missing_vid=(
        lambda o: _dump(_without(dict(o, kind="play"), "vid", "dir", "rate")),
        "missing field 'vid'",
    ),
    seek_missing_dir=(
        lambda o: _dump(_without(dict(o, kind="seek"), "dir", "rate")),
        "seek missing direction",
    ),
    seek_bad_dir=(
        lambda o: _dump(dict(_without(o, "rate"), kind="seek", dir="sideways")),
        "invalid seek direction 'sideways'",
    ),
    rate_missing=(
        lambda o: _dump(_without(dict(o, kind="ratechange"), "dir", "rate")),
        "ratechange missing rate",
    ),
    rate_not_number=(
        lambda o: _dump(dict(_without(o, "dir"), kind="ratechange", rate="fast")),
        "rate must be a number",
    ),
    rate_not_positive=(
        lambda o: _dump(dict(_without(o, "dir"), kind="ratechange", rate=-1.5)),
        "rate must be a positive number",
    ),
)

FORUM_KINDS = dict(
    _COMMON,
    unknown_kind=(lambda o: _dump(dict(o, kind="teleport")), "unknown kind 'teleport'"),
)

BLANK_LINES = (b"", b"   ", b"\t")


SECONDS_PER_WEEK = 604800


def trim_to_course(log_dir: Path, weeks: int) -> None:
    """Drop events at or after ``weeks`` weeks past the earliest event."""
    paths = [log_dir / "clickstream.jsonl", log_dir / "forum.jsonl"]
    logs = [[json.loads(line) for line in p.read_text().splitlines()] for p in paths]
    end = min(obj["t"] for objs in logs for obj in objs) + weeks * SECONDS_PER_WEEK
    for path, objs in zip(paths, logs):
        path.write_text(
            "".join(json.dumps(o, sort_keys=True) + "\n" for o in objs if o["t"] < end)
        )


def inject_file(path: Path, kinds: dict, share: float, rng: Random) -> Counter:
    """Insert malformed lines into one log file in place.

    ``share`` is the number of malformed lines per valid line; every kind
    appears at least once. Returns the expected count per parser reason.
    """
    lines = path.read_bytes().splitlines()
    if not lines:
        raise ValueError(f"{path} has no lines to use as templates")
    names = sorted(kinds)
    n_bad = max(len(names), round(share * len(lines)))
    order = names * (n_bad // len(names)) + rng.sample(names, n_bad % len(names))
    expected: Counter = Counter()
    inserts = []
    for kind in order:
        build, reason = kinds[kind]
        template = json.loads(lines[rng.randrange(len(lines))])
        inserts.append(build(template))
        expected[reason] += 1
    inserts += list(BLANK_LINES)
    out = list(lines)
    for line in inserts:
        out.insert(rng.randint(0, len(out)), line)
    path.write_bytes(b"".join(line + b"\n" for line in out))
    return expected


def inject_logs(log_dir: Path, share: float, seed: int) -> dict[str, dict[str, int]]:
    """Inject into ``clickstream.jsonl`` and ``forum.jsonl``; deterministic per seed.

    Returns ``{"clickstream": {reason: count}, "forum": {reason: count}}``.
    """
    rng = Random(f"inject-{seed}")
    return {
        "clickstream": dict(
            inject_file(log_dir / "clickstream.jsonl", CLICK_KINDS, share, rng)
        ),
        "forum": dict(inject_file(log_dir / "forum.jsonl", FORUM_KINDS, share, rng)),
    }


def prepare_logs(log_dir: Path, weeks: int, dirty_share: float, seed: int) -> dict:
    """Trim freshly synthesized logs to the course and inject when asked.

    Returns the expected diagnostics as ``inject_logs`` does ({} when clean).
    """
    trim_to_course(log_dir, weeks)
    return inject_logs(log_dir, dirty_share, seed) if dirty_share else {}


def expected_total(expected: dict[str, dict[str, int]]) -> int:
    return sum(sum(by_reason.values()) for by_reason in expected.values())
