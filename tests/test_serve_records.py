"""Serve records: JSON round trips and typed errors (repro.serve.api).

``TuneRequest`` and ``TuneResponse`` travel as JSON records: through the
request files of ``python -m repro.serve bench`` and through the result
cache.  A valid record must decode to the object that wrote it, byte for
byte, and a malformed one must fail as a :class:`ValidationError` that
names the field, never as a bare ``KeyError``/``TypeError``/``ValueError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.platform.cluster import TOPOLOGIES
from repro.serve import TuneRequest, TuneResponse
from repro.serve.api import CLUSTER_KINDS, PROBLEM_KINDS
from repro.util.errors import ValidationError
from repro.workloads.suite import dataset_names

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(-(2**63), 2**63 - 1)


@st.composite
def requests(draw) -> TuneRequest:
    problem = draw(st.sampled_from(PROBLEM_KINDS))
    cluster = problem in CLUSTER_KINDS
    try:
        return TuneRequest(
            problem=problem,
            dataset=draw(st.sampled_from(dataset_names())),
            scale=draw(st.floats(0.0, 1.0, exclude_min=True)),
            seed=draw(seeds),
            repeats=1 if cluster else draw(st.integers(1, 8)),
            sample_size=draw(st.none() | st.integers(1, 10**6)),
            n_devices=draw(st.integers(2, 9)) if cluster else 2,
            interconnect=draw(st.sampled_from(TOPOLOGIES)),
            rounds=1 if cluster else draw(st.integers(1, 8)),
        )
    except ValidationError:
        assume(False)
        raise


@st.composite
def responses(draw) -> TuneResponse:
    thresholds = draw(st.lists(finite, max_size=6))
    return TuneResponse(
        problem=draw(st.sampled_from(PROBLEM_KINDS)),
        dataset=draw(st.sampled_from(dataset_names())),
        scale=draw(finite),
        seed=draw(seeds),
        threshold=thresholds[0] if thresholds else draw(finite),
        thresholds=tuple(thresholds),
        rounds=draw(st.integers(1, 8)),
        phase2_ms=draw(finite),
        estimation_ms=draw(finite),
        overhead_percent=draw(finite),
        n_evaluations=draw(st.integers(0, 10**9)),
        search_name=draw(st.text(max_size=12)),
    )


def through_json(record: dict) -> dict:
    return json.loads(json.dumps(record))


#: Values a field's conversion refuses, by the field's kind.  ``None`` is
#: checked separately, because it is valid for the optional fields.
#: Numbers are not coerced: a numeric string, a bool, or a float where an
#: int belongs (even ``2.0``) is refused, never parsed or truncated.
MAPPINGS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
NOT_A_NUMBER = (
    st.sampled_from(["", "many", "1.5.2", "0x10", "3", "0.015625", "nan"])
    | st.booleans()
    | st.lists(st.integers(), max_size=2)
    | MAPPINGS
)
NOT_AN_INT = NOT_A_NUMBER | finite
NOT_TEXT = st.integers() | finite | st.lists(st.text(max_size=2), max_size=2)
NOT_A_LIST = st.text(max_size=3) | st.integers() | MAPPINGS | st.lists(
    st.sampled_from(["x", "0.5", True, None, []]), min_size=1, max_size=2
)
TEXT = {"problem", "dataset", "interconnect", "search_name"}
INTS = {"seed", "repeats", "sample_size", "n_devices", "rounds", "n_evaluations"}
OPTIONAL = {"sample_size", "thresholds"}  # None is a valid value


def corrupted(record: dict, field: str, data) -> dict:
    if field == "thresholds":
        bad = NOT_A_LIST
    elif field in TEXT:
        bad = NOT_TEXT
    else:
        bad = NOT_AN_INT if field in INTS else NOT_A_NUMBER
    return {**record, field: data.draw(bad)}


class TestRoundTrips:
    @SETTINGS
    @given(requests())
    def test_request_record_round_trip(self, request):
        record = request.to_record()
        clone = TuneRequest.from_record(through_json(record))
        assert clone == request
        assert json.dumps(clone.to_record(), sort_keys=True) == json.dumps(
            record, sort_keys=True
        )
        assert clone.fingerprint() == request.fingerprint()

    @SETTINGS
    @given(responses())
    def test_response_record_round_trip(self, response):
        clone = TuneResponse.from_record(through_json(response.to_record()))
        assert clone.canonical_json() == response.canonical_json()
        assert clone == response


class TestMalformedRecords:
    @SETTINGS
    @given(requests(), st.data())
    def test_request_field_missing_none_or_mistyped(self, request, data):
        record = request.to_record()
        field = data.draw(st.sampled_from(sorted(record)))
        required = field in {"problem", "dataset", "scale", "seed"}
        if required:
            missing = {k: v for k, v in record.items() if k != field}
            with pytest.raises(ValidationError, match=repr(field)):
                TuneRequest.from_record(missing)
        if field not in OPTIONAL:
            with pytest.raises(ValidationError, match=repr(field)):
                TuneRequest.from_record({**record, field: None})
        bad = corrupted(record, field, data)
        with pytest.raises(ValidationError, match=repr(field)):
            TuneRequest.from_record(bad)

    @SETTINGS
    @given(responses(), st.data())
    def test_response_field_missing_none_or_mistyped(self, response, data):
        record = response.to_record()
        field = data.draw(st.sampled_from(sorted(record)))
        if field not in {"thresholds", "rounds"}:
            missing = {k: v for k, v in record.items() if k != field}
            with pytest.raises(ValidationError, match=repr(field)):
                TuneResponse.from_record(missing)
        if field not in OPTIONAL:
            with pytest.raises(ValidationError, match=repr(field)):
                TuneResponse.from_record({**record, field: None})
        bad = corrupted(record, field, data)
        with pytest.raises(ValidationError, match=repr(field)):
            TuneResponse.from_record(bad)

    @pytest.mark.parametrize(
        "record, field",
        [
            ({}, "problem"),
            ({"problem": "cc", "dataset": "cant", "scale": "big", "seed": 1}, "scale"),
            ({"problem": "cc", "dataset": "cant", "scale": 0.5, "seed": None}, "seed"),
            (
                {"problem": "cc", "dataset": "cant", "scale": 0.5, "seed": float("inf")},
                "seed",
            ),
            ({"problem": "cc", "dataset": "cant", "scale": 0.5, "seed": 2.7}, "seed"),
            (
                {"problem": "cc", "dataset": "cant", "scale": "0.015625", "seed": 2},
                "scale",
            ),
            (
                {
                    "problem": "cc",
                    "dataset": "cant",
                    "scale": 0.5,
                    "seed": 2,
                    "repeats": True,
                },
                "repeats",
            ),
        ],
    )
    def test_request_examples(self, record, field):
        with pytest.raises(ValidationError, match=repr(field)):
            TuneRequest.from_record(record)

    @pytest.mark.parametrize("record", [None, [], "cc"])
    def test_a_record_must_be_an_object(self, record):
        for cls in (TuneRequest, TuneResponse):
            with pytest.raises(ValidationError, match="must be an object"):
                cls.from_record(record)


class TestConstructorTypes:
    """The constructor converts and refuses as the decoder does, so every
    request it accepts reads back from its own record, fingerprint and
    all."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 2.5),
            ("seed", 2.0),
            ("seed", "2"),
            ("seed", True),
            ("repeats", 1.0),
            ("repeats", False),
            ("sample_size", 8.0),
            ("n_devices", "2"),
            ("rounds", True),
            ("scale", "0.5"),
            ("scale", True),
            ("scale", 10**400),
            ("problem", 3),
        ],
    )
    def test_a_mistyped_field_raises_naming_it(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TuneRequest(**{"problem": "cc", "dataset": "cant", field: value})

    @pytest.mark.parametrize(
        "numbers",
        [
            {"scale": 1},
            {"scale": np.float64(0.25), "seed": np.int64(7)},
            {"repeats": np.int32(2), "sample_size": np.int64(9)},
        ],
    )
    def test_other_numeric_types_are_stored_as_int_and_float(self, numbers):
        request = TuneRequest(problem="cc", dataset="cant", **numbers)
        assert type(request.scale) is float
        for name in ("seed", "repeats", "sample_size"):
            assert type(getattr(request, name)) in (int, type(None))
        clone = TuneRequest.from_record(through_json(request.to_record()))
        assert clone == request
        assert clone.fingerprint() == request.fingerprint()
