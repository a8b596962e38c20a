import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mooctrace import footprint as fp
from mooctrace.events import ActivityToken as T
from mooctrace.events import Event

WEEK = fp.SECONDS_PER_WEEK
COURSE_START = 1000.0


class TestAssignWeek:
    def test_course_start_opens_week_one(self):
        assert fp.assign_week(COURSE_START, COURSE_START) == 1

    def test_exact_boundary_opens_next_week(self):
        assert fp.assign_week(COURSE_START + WEEK, COURSE_START) == 2

    def test_mid_second_week(self):
        assert fp.assign_week(COURSE_START + 1_000_000, COURSE_START) == 2

    def test_event_before_course_start(self):
        with pytest.raises(ValueError):
            fp.assign_week(COURSE_START - 1, COURSE_START)


def make_events(sid, week_tokens):
    """week_tokens: {week: [token, ...]} with timestamps spaced inside the week."""
    events = []
    for week, tokens in week_tokens.items():
        base = COURSE_START + (week - 1) * WEEK
        for i, token in enumerate(tokens):
            events.append(Event(sid, base + 10.0 * (i + 1), token))
    return events


class TestCurrSequences:
    def test_mixed_video_forum_week(self):
        video = [T.PL, T.PA, T.FW, T.RCI, T.PA]
        events = make_events(1, {1: video})
        events.append(Event(1, COURSE_START + 100.0, T.Vf))
        events.append(Event(1, COURSE_START + 110.0, T.Po))
        curr = fp.build_curr_sequences(events, COURSE_START)
        tokens = curr[(1, 1)].tokens
        assert " ".join(t.name for t in tokens) == "PL PA FW RCI PA Vf Po"

    def test_empty_events(self):
        assert fp.build_curr_sequences([], COURSE_START) == {}

    def test_gap_weeks_produce_no_instance(self):
        events = make_events(1, {1: [T.PL], 3: [T.Vf]})
        curr = fp.build_curr_sequences(events, COURSE_START)
        assert set(curr) == {(1, 1), (1, 3)}

    def test_week_context(self):
        events = make_events(5, {2: [T.PL], 4: [T.PA]})
        curr = fp.build_curr_sequences(events, COURSE_START)
        assert (curr[(5, 2)].courseweek, curr[(5, 2)].userweek) == (2, 1)
        assert (curr[(5, 4)].courseweek, curr[(5, 4)].userweek) == (4, 3)

    def test_default_course_start_is_min_timestamp(self):
        events = [Event(1, 5000.0, T.PL), Event(1, 5000.0 + WEEK, T.PA)]
        curr = fp.build_curr_sequences(events)
        assert set(curr) == {(1, 1), (1, 2)}

    def test_timestamp_ties_video_before_forum(self):
        events = [Event(1, COURSE_START + 5, T.Vf), Event(1, COURSE_START + 5, T.PL)]
        curr = fp.build_curr_sequences(events, COURSE_START)
        assert [t.name for t in curr[(1, 1)].tokens] == ["PL", "Vf"]


class TestTcurrSequences:
    def test_two_week_concat(self):
        curr = fp.build_curr_sequences(make_events(1, {1: [T.PL], 2: [T.PA]}), COURSE_START)
        tcurr = fp.build_tcurr_sequences(curr)
        assert [t.name for t in tcurr[(1, 2)].tokens] == ["PL", "PA"]
        assert tcurr[(1, 2)].setup == fp.Setup.TCURR

    def test_single_week_equals_curr(self):
        curr = fp.build_curr_sequences(make_events(1, {2: [T.PL, T.PA]}), COURSE_START)
        tcurr = fp.build_tcurr_sequences(curr)
        assert tcurr[(1, 2)].tokens == curr[(1, 2)].tokens

    def test_gap_weeks_contribute_nothing(self):
        curr = fp.build_curr_sequences(make_events(1, {1: [T.PL], 3: [T.Vf]}), COURSE_START)
        tcurr = fp.build_tcurr_sequences(curr)
        assert [t.name for t in tcurr[(1, 3)].tokens] == ["PL", "Vf"]

    def test_key_preservation(self):
        events = make_events(1, {1: [T.PL], 2: [T.PA]}) + make_events(2, {2: [T.Vt]})
        curr = fp.build_curr_sequences(events, COURSE_START)
        tcurr = fp.build_tcurr_sequences(curr)
        assert set(curr) == set(tcurr)


class TestNominalActivityType:
    @pytest.mark.parametrize(
        "tokens,expected",
        [
            ([T.PL, T.PA], fp.NominalActivityType.VIDEO_ONLY),
            ([T.PL, T.Vf], fp.NominalActivityType.BOTH),
            ([T.Vt, T.Po], fp.NominalActivityType.FORUM_ONLY),
        ],
    )
    def test_classification(self, tokens, expected):
        assert fp.nominal_activity_type(tokens) == expected

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            fp.nominal_activity_type([])


TOKENS = st.sampled_from(list(T))


@st.composite
def student_event_sets(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    events = []
    for _ in range(n):
        sid = draw(st.integers(min_value=1, max_value=3))
        week = draw(st.integers(min_value=1, max_value=5))
        offset = draw(st.floats(min_value=0, max_value=WEEK - 1))
        events.append(Event(sid, COURSE_START + (week - 1) * WEEK + offset, draw(TOKENS)))
    return events


class TestFootprintProperties:
    @given(student_event_sets())
    @settings(max_examples=150, deadline=None)
    def test_tcurr_monotone_and_suffix(self, events):
        curr = fp.build_curr_sequences(events, COURSE_START)
        tcurr = fp.build_tcurr_sequences(curr)
        assert set(curr) == set(tcurr)
        by_student = {}
        for (sid, week), seq in sorted(tcurr.items()):
            assert seq.tokens[-len(curr[(sid, week)].tokens):] == curr[(sid, week)].tokens
            prev = by_student.get(sid, 0)
            assert len(seq.tokens) >= prev
            by_student[sid] = len(seq.tokens)
            assert 1 <= seq.userweek <= seq.courseweek

    @given(student_event_sets(), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_input_permutation_invariance(self, events, rng):
        curr_a = fp.build_curr_sequences(events, COURSE_START)
        shuffled = list(events)
        rng.shuffle(shuffled)
        curr_b = fp.build_curr_sequences(shuffled, COURSE_START)
        assert curr_a == curr_b


def sequence_json_obj(seq):
    """The object each sequences.jsonl line encodes, for json.dumps to write."""
    return {
        "sid": seq.student_id,
        "courseweek": seq.courseweek,
        "userweek": seq.userweek,
        "setup": seq.setup.value,
        "tokens": [t.name for t in seq.tokens],
    }


class TestJsonExport:
    def test_shape(self):
        curr = fp.build_curr_sequences(make_events(9, {2: [T.PL, T.Vf]}), COURSE_START)
        text = fp.sequences_to_jsonl([curr[(9, 2)]])
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == {
            "sid": 9,
            "courseweek": 2,
            "userweek": 1,
            "setup": "curr",
            "tokens": ["PL", "Vf"],
        }

    @given(st.lists(st.builds(
        fp.FootprintSequence,
        student_id=st.integers() | st.integers(min_value=2**63, max_value=2**200),
        courseweek=st.integers(),
        userweek=st.integers(),
        setup=st.sampled_from(fp.Setup),
        tokens=st.lists(TOKENS, max_size=8).map(tuple),
    ), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_equals_sorted_json_dumps(self, seqs):
        expected = "".join(json.dumps(sequence_json_obj(s), sort_keys=True) + "\n" for s in seqs)
        assert fp.sequences_to_jsonl(seqs) == expected
