import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mooctrace import events as ev
from mooctrace.events import ActivityToken as T


class TestActivityToken:
    def test_values_index_the_alphabet(self):
        # Per-token lists in actgraph are indexed by the token itself.
        assert [t.value for t in T] == list(range(15))
        assert max(t.value for t in ev.VIDEO_TOKENS) < min(t.value for t in ev.FORUM_TOKENS)


def click_stream(lines):
    return io.BytesIO(("\n".join(json.dumps(obj) for obj in lines)).encode())


class TestParseClickstream:
    def test_direct_field_mapping(self):
        parsed, diags = ev.parse_clickstream_log(
            click_stream([{"sid": 7, "t": 100.0, "vid": "v1", "kind": "play"}])
        )
        assert diags == []
        assert parsed == [ev.RawClickEvent(7, "v1", 100.0, "play")]

    def test_seek_missing_direction(self):
        parsed, diags = ev.parse_clickstream_log(
            click_stream([{"sid": 7, "t": 100.0, "vid": "v1", "kind": "seek"}])
        )
        assert parsed == []
        assert len(diags) == 1
        assert diags[0].line_no == 1
        assert "seek missing direction" in diags[0].reason

    def test_mixed_valid_and_malformed_preserves_order(self):
        lines = [
            {"sid": 1, "t": 1, "vid": "v1", "kind": "play"},
            {"sid": 1, "t": 2, "vid": "v1", "kind": "pause"},
            {"sid": 1, "t": 3, "vid": "v1", "kind": "warp"},
            {"sid": 2, "t": 4, "vid": "v2", "kind": "seek", "dir": "forward"},
        ]
        parsed, diags = ev.parse_clickstream_log(click_stream(lines))
        assert [e.timestamp for e in parsed] == [1.0, 2.0, 4.0]
        assert len(diags) == 1 and diags[0].line_no == 3

    @pytest.mark.parametrize(
        "obj,fragment",
        [
            ({"t": 1, "vid": "v", "kind": "play"}, "missing field 'sid'"),
            ({"sid": 1, "vid": "v", "kind": "play"}, "missing field 't'"),
            ({"sid": 1, "t": 1, "kind": "play"}, "missing field 'vid'"),
            ({"sid": 1, "t": -5, "vid": "v", "kind": "play"}, "non-negative"),
            ({"sid": 1, "t": 1, "vid": "v", "kind": "ratechange"}, "missing rate"),
            ({"sid": 1, "t": 1, "vid": "v", "kind": "ratechange", "rate": -1}, "positive"),
            ({"sid": 1, "t": 1, "vid": "v", "kind": "seek", "dir": "up"}, "direction"),
            ({"sid": "x", "t": 1, "vid": "v", "kind": "play"}, "integer"),
        ],
    )
    def test_per_line_rejections(self, obj, fragment):
        parsed, diags = ev.parse_clickstream_log(click_stream([obj]))
        assert parsed == []
        assert fragment in diags[0].reason

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"sid": 1, "t": 1%s, "vid": "v", "kind": "play"}' % ("0" * 400),
             "t must be a finite non-negative number"),
            ('{"sid": 1, "t": 2, "vid": "v", "kind": "ratechange", "rate": 1%s}' % ("0" * 400),
             "rate must be a positive number"),
            # Past Python's int digit limit json.loads raises a plain ValueError.
            ('{"sid": %s, "t": 2, "vid": "v", "kind": "play"}' % ("1" * 5000),
             "invalid JSON: Exceeds the limit"),
        ],
        ids=["huge-t", "huge-rate", "sid-past-digit-limit"],
    )
    def test_out_of_range_number_is_one_diagnostic(self, line, reason):
        good = '{"sid": 1, "t": %d, "vid": "v", "kind": "play"}'
        text = "\n".join([good % 1, line, good % 3]) + "\n"
        parsed, diags = ev.parse_clickstream_log(io.BytesIO(text.encode()))
        assert [e.timestamp for e in parsed] == [1.0, 3.0]
        assert [d.line_no for d in diags] == [2]
        assert diags[0].reason.startswith(reason)

    def test_invalid_json_line(self):
        parsed, diags = ev.parse_clickstream_log(io.BytesIO(b"{nope\n"))
        assert parsed == [] and "invalid JSON" in diags[0].reason

    def test_undecodable_line_is_one_diagnostic(self):
        stream = io.BytesIO(b'{"sid":1,"t":1,"vid":"v","kind":"play"}\n\xff\n')
        parsed, diags = ev.parse_clickstream_log(stream)
        assert len(parsed) == 1
        assert diags == [ev.ParseDiagnostic(2, "line is not valid UTF-8")]

    def test_blank_lines_skipped(self):
        stream = io.BytesIO(b'\n{"sid":1,"t":1,"vid":"v","kind":"play"}\n\n')
        parsed, diags = ev.parse_clickstream_log(stream)
        assert len(parsed) == 1 and diags == []


class TestParseForum:
    def test_viewthread(self):
        parsed, diags = ev.parse_forum_log(
            click_stream([{"sid": 7, "t": 50, "kind": "viewthread"}])
        )
        assert parsed == [ev.RawForumEvent(7, 50.0, "viewthread")]
        assert diags == []

    def test_unknown_kind(self):
        parsed, diags = ev.parse_forum_log(
            click_stream([{"sid": 7, "t": 50, "kind": "flag"}])
        )
        assert parsed == [] and "unknown kind" in diags[0].reason

    def test_empty_file(self):
        parsed, diags = ev.parse_forum_log(io.BytesIO(b""))
        assert parsed == [] and diags == []


class TestFilterValidVideos:
    def click(self, sid, vid):
        return ev.RawClickEvent(sid, vid, 1.0, "play")

    def test_below_threshold_dropped(self):
        data = [self.click(1, "v1")]
        assert ev.filter_valid_videos(data, 10) == []

    def test_threshold_one_is_identity(self):
        data = [self.click(1, "v1"), self.click(2, "v2")]
        assert ev.filter_valid_videos(data, 1) == data

    def test_fixture_82_videos_45_valid(self):
        # 45 videos with 3 viewers each, 37 with a single viewer.
        data = []
        for i in range(82):
            vid = f"v{i:02d}"
            viewers = 3 if i < 45 else 1
            data.extend(self.click(sid, vid) for sid in range(viewers))
        kept = ev.filter_valid_videos(data, 3)
        assert {e.video_id for e in kept} == {f"v{i:02d}" for i in range(45)}
        assert len(kept) == 45 * 3

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ev.filter_valid_videos([], 0)


def click(t, kind, vid="v1", sid=7, **kw):
    return ev.RawClickEvent(sid, vid, t, kind, kw.get("dir"), kw.get("rate"))


class TestEncodeClickstream:
    def test_two_close_seeks_group_into_scroll(self):
        out, _ = ev.encode_clickstream(
            [click(10.0, "seek", dir="forward"), click(10.5, "seek", dir="forward")]
        )
        assert out == [ev.Event(7, 10.0, T.FS)]

    def test_isolated_seek(self):
        out, _ = ev.encode_clickstream([click(10.0, "seek", dir="backward")])
        assert out == [ev.Event(7, 10.0, T.BW)]

    def test_ratechange_directions(self):
        out, dropped = ev.encode_clickstream(
            [
                click(1.0, "play"),
                click(2.0, "ratechange", rate=1.5),
                click(3.0, "ratechange", rate=1.25),
            ]
        )
        assert [e.token for e in out] == [T.PL, T.RCI, T.RCD]
        assert dropped == 0

    def test_equal_rate_dropped_and_counted(self):
        out, dropped = ev.encode_clickstream(
            [click(1.0, "ratechange", rate=1.5), click(2.0, "ratechange", rate=1.5)]
        )
        assert [e.token for e in out] == [T.RCI]
        assert dropped == 1

    def test_rate_resets_on_video_change(self):
        out, _ = ev.encode_clickstream(
            [
                click(1.0, "ratechange", rate=1.5, vid="v1"),
                click(2.0, "ratechange", rate=1.25, vid="v2"),
            ]
        )
        # Second event starts a new session at rate 1.0, so 1.25 is an increase.
        assert [e.token for e in out] == [T.RCI, T.RCI]

    def test_three_seeks_collapse_to_one_scroll(self):
        out, _ = ev.encode_clickstream(
            [
                click(10.0, "seek", dir="forward"),
                click(10.4, "seek", dir="forward"),
                click(10.8, "seek", dir="forward"),
            ]
        )
        assert out == [ev.Event(7, 10.0, T.FS)]

    def test_direction_change_breaks_run(self):
        out, _ = ev.encode_clickstream(
            [click(10.0, "seek", dir="forward"), click(10.5, "seek", dir="backward")]
        )
        assert [e.token for e in out] == [T.FW, T.BW]

    def test_gap_of_exactly_one_second_breaks_run(self):
        out, _ = ev.encode_clickstream(
            [click(10.0, "seek", dir="forward"), click(11.0, "seek", dir="forward")]
        )
        assert [e.token for e in out] == [T.FW, T.FW]

    def test_intervening_event_breaks_run(self):
        out, _ = ev.encode_clickstream(
            [
                click(10.0, "seek", dir="forward"),
                click(10.2, "play"),
                click(10.4, "seek", dir="forward"),
            ]
        )
        assert [e.token for e in out] == [T.FW, T.PL, T.FW]

    def test_never_invents_tokens(self):
        raw = [click(float(i), "play") for i in range(5)]
        out, _ = ev.encode_clickstream(raw)
        assert len(out) == len(raw)


class TestEncodeForum:
    def test_single_post(self):
        out = ev.encode_forum([ev.RawForumEvent(1, 5.0, "post")])
        assert out == [ev.Event(1, 5.0, T.Po)]

    def test_mapping_preserves_order(self):
        raw = [ev.RawForumEvent(1, 1.0, "viewforum"), ev.RawForumEvent(1, 2.0, "upvote")]
        assert [e.token for e in ev.encode_forum(raw)] == [T.Vf, T.Uv]

    def test_empty(self):
        assert ev.encode_forum([]) == []


SEEK_DIR = st.sampled_from(["forward", "backward"])


@st.composite
def raw_click_sequences(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    t = 0.0
    out = []
    for _ in range(n):
        t += draw(st.floats(min_value=0.05, max_value=3.0))
        kind = draw(st.sampled_from(["play", "pause", "seek", "ratechange"]))
        vid = draw(st.sampled_from(["v1", "v2"]))
        if kind == "seek":
            out.append(click(t, "seek", vid=vid, dir=draw(SEEK_DIR)))
        elif kind == "ratechange":
            out.append(click(t, "ratechange", vid=vid, rate=draw(st.sampled_from([0.75, 1.0, 1.25, 1.5]))))
        else:
            out.append(click(t, kind, vid=vid))
    return out


class TestEncodeProperties:
    @given(raw_click_sequences())
    @settings(max_examples=200, deadline=None)
    def test_output_never_longer_than_input(self, raw):
        out, dropped = ev.encode_clickstream(raw)
        assert len(out) + dropped <= len(raw)

    @given(raw_click_sequences())
    @settings(max_examples=200, deadline=None)
    def test_scroll_tokens_replay_as_close_seek_runs(self, raw):
        # Every FS/BS must correspond to >= 2 same-direction raw seeks with
        # all internal gaps under a second, verified by replaying the input.
        out, _ = ev.encode_clickstream(raw)
        seeks_at = {e.timestamp: e for e in raw if e.kind == "seek"}
        for encoded in out:
            if encoded.token not in (T.FS, T.BS):
                continue
            direction = "forward" if encoded.token == T.FS else "backward"
            start = seeks_at[encoded.timestamp]
            assert start.seek_direction == direction
            run_len, last_t = 1, encoded.timestamp
            idx = raw.index(start)
            for follower in raw[idx + 1 :]:
                if (
                    follower.kind == "seek"
                    and follower.seek_direction == direction
                    and follower.video_id == start.video_id
                    and follower.timestamp - last_t < 1.0
                ):
                    run_len += 1
                    last_t = follower.timestamp
                else:
                    break
            assert run_len >= 2

    @given(raw_click_sequences())
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, raw):
        assert ev.encode_clickstream(raw) == ev.encode_clickstream(raw)


class TestEncodeEvents:
    def test_groups_students_and_sorts(self):
        clicks = [click(5.0, "play", sid=2), click(1.0, "play", sid=1)]
        forums = [ev.RawForumEvent(1, 3.0, "viewforum")]
        out, dropped = ev.encode_events(clicks, forums)
        assert [(e.student_id, e.token) for e in out] == [
            (1, T.PL),
            (1, T.Vf),
            (2, T.PL),
        ]
        assert dropped == 0

    @given(
        sid=st.integers() | st.integers(min_value=2**63, max_value=2**200),
        t=st.just(-0.0) | st.floats(min_value=0.0, allow_infinity=False),
        token=st.sampled_from(T),
    )
    @example(sid=2**63 + 1, t=-0.0, token=T.PL)
    @example(sid=-1, t=5e-324, token=T.Vt)
    @example(sid=0, t=1e16, token=T.RCD)
    @example(sid=7, t=1.7976931348623157e308, token=T.Th)
    @settings(max_examples=200, deadline=None)
    def test_json_roundtrip(self, sid, t, token):
        e = ev.Event(sid, t, token)
        line = ev.events_to_jsonl([e])
        expected = {"sid": sid, "t": t, "token": token.name}
        assert line == json.dumps(expected, sort_keys=True) + "\n"
        back = ev.events_from_jsonl(line)
        assert back == [e] and ev.events_to_jsonl(back) == line


# Raw log values ingest accepts, and some it refuses: t = -0.0 passes its
# t < 0 check, ints past 2**53 round, and ints past float range overflow.
RAW_SIDS = st.integers() | st.integers(min_value=-(10**4299), max_value=10**4299)
RAW_TIMES = (
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 2**53 + 1, 10**400])
    | st.floats(min_value=0.0, allow_infinity=False)
    | st.floats(min_value=0.0, max_value=2.2250738585072014e-308)
    | st.integers(min_value=2**53, max_value=2**1100)
)


def jsonl_stream(objs):
    return io.BytesIO("".join(json.dumps(obj) + "\n" for obj in objs).encode())


class TestEventsFromJsonl:
    @given(st.lists(st.builds(
        ev.Event,
        st.integers() | st.integers(min_value=2**63, max_value=2**200),
        st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
        | st.floats(min_value=0.0, allow_infinity=False),
        st.sampled_from(T),
    ), max_size=20))
    @example([])
    @example([ev.Event(sid, 1.5, token) for sid, token in enumerate(T)])
    @example([ev.Event(2**63 + 1, -0.0, T.PL), ev.Event(-1, 5e-324, T.Vt),
              ev.Event(0, 1.7976931348623157e308, T.Th)])
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, events):
        text = ev.events_to_jsonl(events)
        back = ev.events_from_jsonl(text)
        assert back == events and ev.events_to_jsonl(back) == text
        assert all(type(e) is ev.Event for e in back)

    @given(
        clicks=st.lists(st.fixed_dictionaries({
            "sid": RAW_SIDS, "t": RAW_TIMES, "vid": st.sampled_from(["v1", "v2"]),
            "kind": st.sampled_from(ev.CLICK_KINDS),
            "dir": st.sampled_from(ev.SEEK_DIRECTIONS), "rate": st.floats(0.25, 4.0),
        }), max_size=12),
        forums=st.lists(st.fixed_dictionaries({
            "sid": RAW_SIDS, "t": RAW_TIMES,
            "kind": st.sampled_from(sorted(ev.FORUM_KIND_TO_TOKEN)),
        }), max_size=6),
    )
    @example(
        clicks=[{"sid": -3, "t": -0.0, "vid": "v1", "kind": "play"},
                {"sid": 10**4299, "t": 2**53 + 1, "vid": "v1", "kind": "pause"}],
        forums=[{"sid": -(10**4299), "t": 5e-324, "kind": "post"},
                {"sid": 0, "t": -0.0, "kind": "viewthread"}],
    )
    @settings(max_examples=100, deadline=None)
    def test_ingest_output_reads_back(self, clicks, forums):
        raw_clicks, _ = ev.parse_clickstream_log(jsonl_stream(clicks))
        raw_forums, _ = ev.parse_forum_log(jsonl_stream(forums))
        encoded, _ = ev.encode_events(raw_clicks, raw_forums)
        text = ev.events_to_jsonl(encoded)
        back = ev.events_from_jsonl(text)
        assert back == encoded and ev.events_to_jsonl(back) == text

    @pytest.mark.parametrize("text, bad_line", [
        pytest.param('{"sid":1,"t":2.5,"token":"PL"}\n', 1, id="compact"),
        pytest.param('{"token": "PL", "t": 2.5, "sid": 1}\n', 1, id="reordered-keys"),
        pytest.param('{"sid": 1, "t": 2.5, "token": "PL"}\n\n'
                     '{"sid": 2, "t": 3.0, "token": "Vf"}\n', 2, id="blank-line"),
        pytest.param('{"sid": 1, "t": 2.5, "token": "PL"}\r\n'
                     '{"sid": 2, "t": 3.0, "token": "Vf"}\r\n', 1, id="crlf"),
        pytest.param('{"sid": 1, "t": 2.5, "token": "PL"}\n'
                     '{"sid": 2, "t": 3.0, "token": "Vf"}', 2, id="no-final-newline"),
        pytest.param('{"sid": 1, "t": 1e400, "token": "PL"}\n', 1, id="t-1e400"),
        pytest.param('{"sid": 1, "t": 1' + "0" * 400 + ', "token": "PL"}\n', 1,
                     id="t-401-digits"),
        pytest.param('{"sid": 1' + "0" * 4999 + ', "t": 2.5, "token": "PL"}\n', 1,
                     id="sid-5000-digits"),
        pytest.param('{"sid": 1, "t": 2.5, "token": "XX"}\n', 1, id="unknown-token"),
        pytest.param('{"sid": 1, "t": -2.5, "token": "PL"}\n', 1, id="negative-t"),
        pytest.param('x{"sid": 1, "t": 2.5, "token": "PL"}\n', 1, id="junk-before"),
        pytest.param('{"sid": 01, "t": 2.5, "token": "PL"}\n', 1, id="leading-zero"),
        pytest.param('{"sid": ١, "t": 2.5, "token": "PL"}\n', 1, id="non-ascii-digit"),
        pytest.param('{"sid": 1.7, "t": 2.5, "token": "PL"}\n', 1, id="float-sid"),
        pytest.param('{"sid": true, "t": 2.5, "token": "PL"}\n', 1, id="bool-sid"),
        pytest.param('{"sid": "12", "t": "-3", "token": "PL"}\n', 1, id="string-sid-and-t"),
        pytest.param('{"sid": -0, "t": 2.5, "token": "PL"}\n', 1, id="minus-zero-sid"),
        pytest.param('{"sid": 1, "t": 7, "token": "PL"}\n', 1, id="int-t"),
        pytest.param('{"sid": 1, "t": 1E5, "token": "PL"}\n', 1, id="t-1E5"),
        pytest.param('{"sid": 1, "t": 1e5, "token": "PL"}\n', 1, id="t-1e5"),
        pytest.param('{"sid": 1, "t": 1E+16, "token": "PL"}\n', 1, id="t-1E+16"),
    ])
    def test_other_text_is_read_line_by_line(self, text, bad_line):
        """Text not in ingest's format is searched line by line and refused,
        naming its first bad line; a good line before it is not blamed."""
        good = '{"sid": 1, "t": 0.0, "token": "PL"}\n'
        with pytest.raises(ValueError, match=rf"^line {bad_line + 1}: "):
            ev.events_from_jsonl(good + text)
