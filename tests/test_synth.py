import io
import json

import pytest

from mooctrace import actgraph, features, model, synth
from mooctrace.events import (
    encode_events,
    filter_valid_videos,
    parse_clickstream_log,
    parse_forum_log,
)
from mooctrace.footprint import build_curr_sequences

CREATOR_KINDS = {"post", "comment", "thread"}
EDITOR_KINDS = {"upvote", "downvote"}


def to_stream(objs):
    return io.BytesIO("".join(json.dumps(o) + "\n" for o in objs).encode())


class TestGenerator:
    def test_deterministic_for_seed(self):
        profile = synth.SynthProfile(n_students=50, weeks=4)
        assert synth.generate_synthetic(profile, 3) == synth.generate_synthetic(profile, 3)

    def test_different_seeds_differ(self):
        profile = synth.SynthProfile(n_students=50, weeks=4)
        assert synth.generate_synthetic(profile, 3) != synth.generate_synthetic(profile, 4)

    def test_lurker_only_mix_never_posts_or_votes(self):
        profile = synth.SynthProfile(
            n_students=80, weeks=4, archetype_mix=(1.0, 0.0, 0.0)
        )
        _, forums = synth.generate_synthetic(profile, 11)
        kinds = {line["kind"] for line in forums}
        assert not kinds & (CREATOR_KINDS | EDITOR_KINDS)
        assert kinds <= {"viewforum", "viewthread"}

    def test_default_mix_posting_fraction(self):
        profile = synth.SynthProfile(n_students=1000, weeks=4)
        _, forums = synth.generate_synthetic(profile, 42)
        posters = {line["sid"] for line in forums if line["kind"] in CREATOR_KINDS}
        fraction = len(posters) / 1000
        assert abs(fraction - 0.01) <= 0.01

    def test_reparses_cleanly(self):
        profile = synth.SynthProfile(n_students=60, weeks=5)
        clicks, forums = synth.generate_synthetic(profile, 5)
        parsed_c, diags_c = parse_clickstream_log(to_stream(clicks))
        parsed_f, diags_f = parse_forum_log(to_stream(forums))
        assert diags_c == [] and diags_f == []
        assert len(parsed_c) == len(clicks) and len(parsed_f) == len(forums)

    def test_timestamps_monotone_per_student(self):
        clicks, forums = synth.generate_synthetic(
            synth.SynthProfile(n_students=40, weeks=4), 9
        )
        last: dict[int, float] = {}
        for lines in (clicks, forums):
            last.clear()
            for line in lines:
                sid = line["sid"]
                assert line["t"] > last.get(sid, 0.0)
                last[sid] = line["t"]

    def test_id_zones(self):
        clicks, forums = synth.generate_synthetic(
            synth.SynthProfile(n_students=100, weeks=3), 2
        )
        sids = {line["sid"] for line in clicks} | {line["sid"] for line in forums}
        low = {s for s in sids if s < synth.TEST_ZONE_START}
        high = sids - low
        assert low and high
        assert max(low) <= 100
        assert min(high) >= synth.TEST_ZONE_START

    def test_all_students_emit_events(self):
        n = 120
        clicks, forums = synth.generate_synthetic(
            synth.SynthProfile(n_students=n, weeks=4), 13
        )
        sids = {line["sid"] for line in clicks} | {line["sid"] for line in forums}
        assert len(sids) == n

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            synth.generate_synthetic(synth.SynthProfile(n_students=0, weeks=4), 1)
        with pytest.raises(ValueError):
            synth.generate_synthetic(
                synth.SynthProfile(n_students=5, weeks=4, archetype_mix=(0, 0, 0)), 1
            )

    def test_signal_shrinks_final_weeks(self):
        # With a full-strength signal, the average final-week event count
        # drops well below the average mid-span week.
        def weekly_counts(signal):
            clicks, forums = synth.generate_synthetic(
                synth.SynthProfile(n_students=150, weeks=6,
                                   dropout_signal_strength=signal), 31
            )
            per_week: dict[tuple[int, int], int] = {}
            for line in clicks + forums:
                week = int((line["t"] - synth.COURSE_START) // 604800) + 1
                key = (line["sid"], week)
                per_week[key] = per_week.get(key, 0) + 1
            last_week = {}
            for sid, week in per_week:
                last_week[sid] = max(last_week.get(sid, 0), week)
            finals = [n for (sid, w), n in per_week.items() if w == last_week[sid]]
            others = [n for (sid, w), n in per_week.items() if w != last_week[sid]]
            return sum(finals) / len(finals), sum(others) / max(1, len(others))

        final_mean, other_mean = weekly_counts(1.0)
        assert final_mean < other_mean * 0.45
        final_mean0, other_mean0 = weekly_counts(0.0)
        assert final_mean0 > other_mean0 * 0.7

    def test_low_density_cell_has_higher_dropout_fraction(self):
        clicks, forums = synth.generate_synthetic(
            synth.SynthProfile(n_students=150, weeks=6, dropout_signal_strength=1.0),
            17,
        )
        raw_c, _ = parse_clickstream_log(to_stream(clicks))
        raw_f, _ = parse_forum_log(to_stream(forums))
        events, _ = encode_events(filter_valid_videos(raw_c, 10), raw_f)
        curr = build_curr_sequences(events)
        last_week = {}
        for sid, week in curr:
            last_week[sid] = max(last_week.get(sid, 0), week)
        keys = sorted(curr)
        labels = [1 if week == last_week[sid] else 0 for sid, week in keys]
        densities = [
            actgraph.compute_metrics(actgraph.build_graph(curr[key].tokens)).density
            for key in keys
        ]
        split = features.Dichotomizer.fit(densities, "equal_frequency")
        bins = [split.apply(d) for d in densities]
        rows = dict(
            (cat, (n0, n1))
            for cat, n0, n1 in model.contingency_table([str(b) for b in bins], labels)
        )
        low_n0, low_n1 = rows["0"]
        high_n0, high_n1 = rows["1"]
        assert low_n1 / (low_n0 + low_n1) > high_n1 / (high_n0 + high_n1)
