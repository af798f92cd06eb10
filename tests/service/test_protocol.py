"""Wire-protocol validation: submissions, responses, framing."""

import json

import pytest

from repro.service.protocol import (
    ALLOWED_KNOBS,
    NUMERIC_KNOBS,
    MalformedSubmission,
    Response,
    Status,
    TERMINAL_STATUSES,
    decode_line,
    encode_line,
    parse_submission,
)


def valid_raw(**overrides):
    raw = {
        "tenant": "carrier-a",
        "client": "client-1",
        "app": "netflix",
        "deadline_s": 30,
        "knobs": {"limiter": "common", "seed": 4, "duration": 8.0},
    }
    raw.update(overrides)
    return raw


class TestParseSubmission:
    def test_round_trip(self):
        submission = parse_submission(valid_raw())
        assert submission.tenant == "carrier-a"
        assert submission.deadline_s == 30.0
        scenario = submission.to_scenario()
        assert scenario.app == "netflix"
        assert scenario.limiter == "common"
        assert submission.duration == 8.0

    def test_as_dict_reparses_identically(self):
        submission = parse_submission(valid_raw(id="r-1"))
        again = parse_submission(submission.as_dict())
        assert again == submission

    @pytest.mark.parametrize("mutation,fragment", [
        ({"tenant": ""}, "tenant"),
        ({"client": None}, "client"),
        ({"app": "not-an-app"}, "unknown app"),
        ({"deadline_s": 0}, "deadline"),
        ({"deadline_s": "soon"}, "deadline"),
        ({"id": 7}, "id"),
        ({"knobs": ["limiter"]}, "knobs"),
        ({"knobs": {"background_rate_bps": 1e12}}, "unknown knobs"),
        ({"knobs": {"seed": 1.5}}, "seed"),
        ({"knobs": {"limiter": "sideways"}}, "invalid scenario"),
        ({"knobs": {"duration": 1e6}}, "cap"),
        ({"extra_field": 1}, "unknown fields"),
        ({"knobs": {"rtt_1": 0.003}}, "invalid scenario"),
        ({"knobs": {"duration": True}}, "duration must be a number"),
        ({"knobs": {"rtt_2": False}}, "rtt_2 must be a number"),
        ({"knobs": {"queue_factor": "0.5"}}, "queue_factor must be a number"),
        ({"knobs": {"seed": True}}, "seed must be an integer"),
        ({"knobs": {"duration": float("nan")}}, "duration must be finite"),
        ({"knobs": {"congestion_factor": float("inf")}}, "congestion_factor"),
        ({"knobs": {"queue_factor": 0}}, "queue_factor"),
        ({"knobs": {"rtt_1": float("nan")}}, "rtt_1"),
        ({"knobs": {"seed": -3}}, "seed must be a non-negative integer"),
    ])
    def test_rejections_carry_structured_reasons(self, mutation, fragment):
        with pytest.raises(MalformedSubmission) as excinfo:
            parse_submission(valid_raw(**mutation))
        assert fragment in excinfo.value.reason

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_frame_rejected(self, literal):
        # json.loads accepts these literals; the knob must not get past
        # the parse into the fair queue as a cost.
        line = '{"client": "c", "knobs": {"duration": %s}}' % literal
        with pytest.raises(MalformedSubmission):
            parse_submission(decode_line(line))

    def test_non_dict_rejected(self):
        with pytest.raises(MalformedSubmission):
            parse_submission(["not", "a", "dict"])

    def test_work_multiplier_knobs_are_fenced(self):
        # The whitelist is the defence against submissions smuggling in
        # arbitrary work: everything not listed must be rejected.
        with pytest.raises(MalformedSubmission):
            parse_submission(valid_raw(knobs={"tcp_background_flows": 1000}))

    def test_whitelist_and_wire_types_are_pinned(self):
        # Both are derived from ScenarioConfig's declarations; a knob
        # joins the wire only with an edit here too.
        number = (int, float)
        assert NUMERIC_KNOBS == {
            "input_rate_factor": number,
            "queue_factor": number,
            "background_share": number,
            "duration": number,
            "rtt_1": number,
            "rtt_2": number,
            "congestion_factor": number,
            "seed": int,
        }
        assert ALLOWED_KNOBS == {"limiter", *NUMERIC_KNOBS}


class TestFraming:
    def test_encode_decode_round_trip(self):
        raw = valid_raw()
        assert decode_line(encode_line(raw)) == json.loads(json.dumps(raw))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(MalformedSubmission):
            decode_line(b"\xff\xfe garbage")
        with pytest.raises(MalformedSubmission):
            decode_line("not json at all")
        with pytest.raises(MalformedSubmission):
            decode_line('"a bare string"')

    def test_response_line_is_sorted_canonical_json(self):
        response = Response(id="r", status=Status.VERDICT, tenant="t",
                            verdict={"detected": True})
        parsed = json.loads(response.line())
        assert parsed["id"] == "r"
        assert parsed["verdict"] == {"detected": True}
        assert list(parsed) == sorted(parsed)

    def test_terminal_statuses_cover_the_contract(self):
        assert set(TERMINAL_STATUSES) == {
            "VERDICT", "REJECTED_OVERLOAD", "DEADLINE_EXCEEDED", "FAILED",
        }
