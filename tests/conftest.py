from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import pytest

EXAMPLE = Path(__file__).resolve().parent.parent / "scenario.example.json"

# scenario.example.json and two variants of it, by test id
EXAMPLE_VARIANTS = {
    "example": {},
    "fresh-key-per-request": {"policy": {"max_uses": 1, "max_age_sec": 600}},
    "one-time-pad": {"offered_suites": [2]},  # the pad exhausts the pool: 11 key-exhausted replies
}


def example_doc(variant: str) -> dict:
    return dict(json.loads(EXAMPLE.read_bytes()), **EXAMPLE_VARIANTS[variant])


# Pass/fail lines registered by the acceptance suite; echoed in the terminal
# summary so a plain `pytest` run shows one line per criterion.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {name}: {status}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def sim_clock():
    from edgeqkd.clock import SimulatedClock

    return SimulatedClock()


def kme_status(transport, base_url: str, peer_sae: str, *, size: int | None = None) -> dict:
    """A key-management entity's status document for a peer, read over its REST route."""
    from edgeqkd.transport import raise_for_status
    from edgeqkd.wire import loads

    query = "" if size is None else f"?size={size}"
    response = transport.request(src="test", channel="qkd", method="GET",
                                 url=f"{base_url}/api/v1/keys/{peer_sae}/status{query}")
    return loads(raise_for_status(response).body)


def holds(key_table, key_id: str) -> bool:
    """Whether a key table holds a live key, observed through its lookup."""
    return key_table.get(key_id) is not None


@dataclass(frozen=True)
class Frame:
    """A parsed transcript payload (the inverse of `transport.frame_head` and a body)."""

    kind: str  # "REQ" | "RSP"
    status: int | None
    method: str
    path: str
    headers: dict[str, str]
    body: bytes


def parse_frame(payload: bytes) -> Frame:
    head, _, body = payload.partition(b"\n\n")
    lines = head.decode("utf-8", "replace").split("\n")
    first = lines[0].split(" ")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        if name:
            headers[name] = value
    if first[0] == "RSP":
        return Frame("RSP", int(first[1]), first[2], first[3] if len(first) > 3 else "", headers, body)
    return Frame("REQ", None, first[1], first[2] if len(first) > 2 else "", headers, body)


def iter_frames(records: Iterable) -> Iterable[tuple]:
    for record in records:
        yield record, parse_frame(record.payload)
