"""Seeded synthetic clickstream/forum logs for end-to-end runs.

Students follow the 90-9-1 community split: lurkers only view content,
editors additionally vote, creators post/comment/start threads. Survival
is memoryless (constant weekly leave probability), so with no planted
signal nothing predicts the final participation week. With a planted
signal, a student's last weeks shrink: fewer sessions, fewer distinct
tokens, fewer repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

# Fixed synthetic course epoch; ingest defaults course_start to the
# earliest event, which lands within the first hour of week 1.
COURSE_START = 1_400_000_000.0

# Default held-out student id range (see featurize); the generator places
# roughly 30% of students inside it so default configs split sensibly.
TEST_ZONE_START = 798619
TRAIN_FRACTION = 0.7

LURKER, EDITOR, CREATOR = "lurker", "editor", "creator"

_SECONDS_PER_WEEK = 604800
_RAMP = (0.15, 0.4, 0.7)  # intensity multiplier at 0, 1, 2 weeks before the end
_PLAYRATES = (0.75, 1.25, 1.5, 2.0)


@dataclass(frozen=True)
class SynthProfile:
    n_students: int
    weeks: int = 8
    archetype_mix: tuple[float, float, float] = (0.90, 0.09, 0.01)
    dropout_signal_strength: float = 0.8

    def normalized_mix(self) -> tuple[float, float, float]:
        total = sum(self.archetype_mix)
        # `not p >= 0` refuses NaN too, and an infinite share makes the sum
        # infinite: either would make every student one archetype.
        if not 0 < total < math.inf or any(not p >= 0 for p in self.archetype_mix):
            raise ValueError("archetype_mix must be finite, non-negative and sum > 0")
        return tuple(p / total for p in self.archetype_mix)


class _StudentClock:
    """Monotonic within-week timestamps with generous inter-event gaps."""

    def __init__(self, rng: Random, week: int):
        self.rng = rng
        self.t = COURSE_START + (week - 1) * _SECONDS_PER_WEEK + rng.uniform(60, 3600)

    def step(self, lo: float = 5.0, hi: float = 240.0) -> float:
        self.t += self.rng.uniform(lo, hi)
        return round(self.t, 3)

    def burst_step(self) -> float:
        # Under the one-second scroll-grouping gap.
        self.t += self.rng.uniform(0.2, 0.6)
        return round(self.t, 3)


def _pick_archetype(rng: Random, mix: tuple[float, float, float]) -> str:
    r = rng.random()
    if r < mix[0]:
        return LURKER
    if r < mix[0] + mix[1]:
        return EDITOR
    return CREATOR


def _video_session(
    rng: Random,
    sid: int,
    clock: _StudentClock,
    week: int,
    state: dict,
    richness: float,
    clicks: list[dict],
) -> None:
    vid = f"w{week:02d}v{rng.randint(1, 3)}"
    if vid != state.get("vid"):
        state["vid"] = vid
        state["rate"] = 1.0

    def click(kind: str, **extra) -> None:
        clicks.append({"sid": sid, "t": clock.step(), "vid": vid, "kind": kind, **extra})

    click("play")
    for _ in range(rng.randint(1, 2 + int(4 * richness))):
        r = rng.random()
        if r < 0.40:
            click("pause")
        elif r < 0.70:
            click("play")
        elif r < 0.85:
            direction = rng.choice(("forward", "backward"))
            n_seeks = rng.choice((1, 1, 2, 3))
            click("seek", dir=direction)
            for _ in range(n_seeks - 1):
                clicks.append(
                    {"sid": sid, "t": clock.burst_step(), "vid": vid,
                     "kind": "seek", "dir": direction}
                )
        else:
            rate = rng.choice([p for p in _PLAYRATES if p != state["rate"]])
            click("ratechange", rate=rate)
            state["rate"] = rate


def _forum_session(
    rng: Random,
    sid: int,
    clock: _StudentClock,
    archetype: str,
    richness: float,
    force_create: bool,
    forums: list[dict],
) -> None:
    def forum(kind: str) -> None:
        forums.append({"sid": sid, "t": clock.step(), "kind": kind})

    forum("viewforum")
    for _ in range(rng.randint(1, 1 + int(3 * richness))):
        forum("viewthread")
    if archetype in (EDITOR, CREATOR) and rng.random() < 0.6:
        forum(rng.choice(("upvote", "downvote")))
    if archetype == CREATOR and (force_create or rng.random() < 0.7):
        forum(rng.choice(("post", "comment", "thread")))


def generate_synthetic(
    profile: SynthProfile, seed: int
) -> tuple[list[dict], list[dict]]:
    """Produce (clickstream lines, forum lines) as JSON-ready dicts.

    Deterministic for a given (profile, seed). Roughly the first 70% of
    students get small ids, the rest get ids in the held-out zone.
    """
    if profile.n_students < 1 or profile.weeks < 1:
        raise ValueError("n_students and weeks must be >= 1")
    if not 0 <= profile.dropout_signal_strength <= 1:  # NaN too
        raise ValueError("dropout_signal_strength must be a probability in [0, 1]")
    mix = profile.normalized_mix()
    rng = Random(seed)
    clicks: list[dict] = []
    forums: list[dict] = []

    n_train = round(profile.n_students * TRAIN_FRACTION)
    leave_prob = 1.0 / profile.weeks

    for idx in range(profile.n_students):
        sid = idx + 1 if idx < n_train else TEST_ZONE_START + (idx - n_train)
        archetype = _pick_archetype(rng, mix)
        signaled = rng.random() < profile.dropout_signal_strength

        join_week = rng.choices((1, 2, 3), weights=(0.7, 0.2, 0.1))[0]
        last_week = join_week
        while rng.random() > leave_prob:
            last_week += 1

        base_sessions = rng.randint(3, 6) + (archetype != LURKER) * 2
        video_share = rng.uniform(0.5, 0.85)
        state: dict = {}
        posted = False

        for week in range(join_week, last_week + 1):
            interior = join_week < week < last_week
            if interior and rng.random() > 0.88:
                continue
            intensity = 1.0
            if signaled and last_week - week < len(_RAMP):
                intensity = _RAMP[last_week - week]
            n_sessions = max(1, round(base_sessions * intensity))
            clock = _StudentClock(rng, week)
            for _ in range(n_sessions):
                if rng.random() < video_share:
                    _video_session(rng, sid, clock, week, state, intensity, clicks)
                else:
                    force_create = archetype == CREATOR and not posted
                    _forum_session(
                        rng, sid, clock, archetype, intensity, force_create, forums
                    )
                    posted = posted or archetype == CREATOR
    return clicks, forums
