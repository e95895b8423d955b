"""The envelope and file codec the BENCH, PROFILE and MEM payloads
share: each module's error type and message survive the move."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchError,
    read_bench,
    validate_bench,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    ProfileError,
    read_profile,
    validate_profile,
)
from repro.obs.resources import (
    RESOURCES_SCHEMA,
    ResourceError,
    read_resources,
    validate_resources,
)

GOLDEN = Path(__file__).parent / "golden"


class Payload(NamedTuple):
    kind: str
    schema: int
    golden: str
    validate: Callable[[dict], dict]
    read: Callable
    error: type[ValueError]

    def good(self) -> dict:
        return json.loads((GOLDEN / self.golden).read_text(encoding="utf-8"))


PAYLOADS = [
    Payload("bench", BENCH_SCHEMA, "bench.golden.json", validate_bench,
            read_bench, BenchError),
    Payload("profile", PROFILE_SCHEMA, "profile.golden.json",
            validate_profile, read_profile, ProfileError),
    Payload("resources", RESOURCES_SCHEMA, "resources.golden.json",
            validate_resources, read_resources, ResourceError),
]


@pytest.fixture(params=PAYLOADS, ids=[p.kind for p in PAYLOADS])
def payload(request) -> Payload:
    return request.param


def test_golden_payload_is_valid(payload):
    good = payload.good()
    assert payload.validate(good) is good


def test_not_an_object(payload):
    with pytest.raises(
        payload.error, match=f"^{payload.kind} payload must be a JSON object$"
    ):
        payload.validate([])


def test_bad_schema(payload):
    schema = payload.schema
    with pytest.raises(payload.error, match=re.escape(
        f"unsupported {payload.kind} schema {schema + 1} (speaking {schema})"
    )):
        payload.validate(dict(payload.good(), schema=schema + 1))


def test_bad_kind(payload):
    with pytest.raises(
        payload.error, match=f"^unknown {payload.kind} kind 'other'$"
    ):
        payload.validate(dict(payload.good(), kind="other"))


def test_bad_created_utc(payload):
    with pytest.raises(payload.error, match="^created_utc must be a string$"):
        payload.validate(dict(payload.good(), created_utc=20260101))


def test_bad_fingerprint(payload):
    with pytest.raises(payload.error, match="^fingerprint must be an object$"):
        payload.validate(dict(payload.good(), fingerprint=None))
    with pytest.raises(payload.error, match=re.escape(
        "fingerprint missing keys ['implementation', 'platform', "
        "'machine', 'cpu_count', 'git_sha']"
    )):
        payload.validate(dict(payload.good(), fingerprint={"python": "3"}))


def test_read_prefixes_the_path_of_a_torn_file(payload, tmp_path):
    torn = tmp_path / "torn.json"
    torn.write_text('{"schema": 1, "ki', encoding="utf-8")
    with pytest.raises(
        payload.error, match=f"^{re.escape(str(torn))}: invalid JSON: "
    ):
        payload.read(torn)


def test_read_prefixes_the_path_of_an_invalid_payload(payload, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(payload.good(), kind="other")))
    with pytest.raises(payload.error, match=re.escape(
        f"{path}: unknown {payload.kind} kind 'other'"
    )):
        payload.read(path)
