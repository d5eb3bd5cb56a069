"""One request-head grammar on both transports, held by a differential fuzz.

Each drawn exchange goes through an InprocTransport and an HttpTransport that
reach the same router, whose reply echoes what the handler saw (method, path,
query fields in order, headers, body) under a drawn status and drawn reply
headers. Both must give an equal WireResponse and byte-identical transcript
frames, or both must refuse the request with MalformedError and record
nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from edgeqkd.clock import SimulatedClock
from edgeqkd.errors import MalformedError
from edgeqkd.httpd import ComponentHttpServer, HttpTransport
from edgeqkd.transport import InprocTransport, Router, WireResponse
from edgeqkd.wire import decode_error, dumps, loads


@pytest.fixture(scope="module")
def transports():
    """(inproc, http, reply): both transports reach one router under `peer`;
    `reply` holds the status and headers of the router's next reply, and
    whether it has a body."""
    reply = {}

    def echo(request):
        seen = {"method": request.method, "path": request.path, "query": list(request.query.items()),
                "headers": request.headers, "body": request.body.hex()}
        return WireResponse(reply["status"], dict(reply["headers"]), dumps(seen) if reply["body"] else b"")

    router = Router()
    router.set_fallback(echo)
    server = ComponentHttpServer("peer", router).start()
    inproc, http = InprocTransport(clock=SimulatedClock()), HttpTransport(clock=SimulatedClock())
    inproc.register("peer", router)
    http.register("peer", server.address)
    yield inproc, http, reply
    http.close()
    server.stop()


def exchange(transports, method, url, headers, body, reply_headers, reply_status=200, reply_body=True):
    """The one outcome both transports give: the response, or None for a
    refused request; each transport's frames are compared on the way."""
    inproc, http, reply = transports
    reply.update(status=reply_status, headers=reply_headers, body=reply_body)
    outcomes = []
    for transport in (inproc, http):
        before = len(transport.transcript.records())
        try:
            response = transport.request(src="t", channel="mx2", method=method, url=url,
                                         headers=headers, body=body)
        except MalformedError:
            response = None
        outcomes.append((response, transport.transcript.records()[before:]))
    (response, frames), other = outcomes
    assert other == (response, frames)
    assert len(frames) == (0 if response is None else 2)
    return response


# An exchange is drawn wholly in the grammar, or with each part drawn in it or
# from an alphabet that adds SP, HTAB, CR, LF, NUL, DEL, a C1 control,
# Latin-1, a euro sign and upper case to the characters the grammar gives a
# meaning to (`%`, `+`, `?`, `#`, `:`)
_ODD = " \t\r\n\x00\x7f\x85é€"


def joined(chunks, min_size=0, max_size=4):
    return st.lists(st.sampled_from(chunks), min_size=min_size, max_size=max_size).map("".join)


def fields(names, values):
    return st.dictionaries(names, values, max_size=3)


GOOD = {
    "method": joined(["GET", "POST", "post", "M", "-", "!", "~"], min_size=1, max_size=3),
    "url": st.tuples(st.sampled_from(["http://peer"] * 4 + ["http://gone", "ftp://peer"]),
                     joined(["/", "a", "B", "?", "=", "&", "+", ":", "@", "%41", "%2f", "~", "!", "'"],
                            max_size=8).map(lambda path: "/" + path)).map("".join),
    "name": joined(["x", "a", "-", "!", "~", "'", "9"], min_size=1),
    "value": joined(["v", "A", ":", "%", "+", "?", "#", "a b", "a\tb", '"']),
}
ODD = {
    "method": st.text(alphabet="GETPOS:/%" + _ODD, max_size=4),
    "url": st.text(alphabet="htp:/%peer2F+?#&=@" + _ODD, max_size=20),
    "name": st.one_of(st.sampled_from(["X-A", "x-a ", " x-a", "x-a:b", "host", "content-length",
                                       "connection", "transfer-encoding"]),
                      st.text(alphabet="xa-:%+?#AZ" + _ODD, max_size=4)),
    "value": st.text(alphabet="va :%+?#" + _ODD, max_size=4),
}
ANY = {part: st.one_of(GOOD[part], ODD[part]) for part in GOOD}
drawn_exchanges = st.one_of(*(
    st.tuples(parts["method"], parts["url"], fields(parts["name"], parts["value"]),
              st.binary(max_size=16), fields(ANY["name"], ANY["value"]),
              st.sampled_from([200, 200, 200, 404, 204, 304, 99, 1000]), st.booleans())
    for parts in (GOOD, ANY)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=drawn_exchanges)
@example(drawn=("GET", "http://peer/n", {"x-a": "v "}, b"", {}))
@example(drawn=("GET", "http://peer/n", {"x-a": " v"}, b"", {}))
@example(drawn=("GET", "http://peer/n", {"x-a ": "1"}, b"", {}))
@example(drawn=("GET", "http://peer/n", {"x-a:b": "1"}, b"", {}))
@example(drawn=("GET", "http://peer/n?a=", {}, b"", {}))
@example(drawn=("GET", "http://peer/n?b=2&a=1", {}, b"", {}))
@example(drawn=("GET", "http://peer/n", {}, b"", {"Content-Type": "text/plain"}))
@example(drawn=("GET", "http://peer/n", {}, b"", {"x-b": "v "}))
@example(drawn=("GET", "http://peer/n", {}, b"", {"x-b ": "1"}))
def test_both_transports_answer_alike(transports, drawn):
    exchange(transports, *drawn)


# The exchanges the two transports once answered differently, and what both answer now
BAD_HEADER = (500, "reply header outside the field grammar")


@pytest.mark.parametrize("request_headers, url, reply_headers, reply_status, outcome", [
    ({"x-a": "v "}, "http://peer/n", {}, 200, None),
    ({"x-a": " v"}, "http://peer/n", {}, 200, None),
    ({"x-a ": "1"}, "http://peer/n", {}, 200, None),
    ({"x-a:b": "1"}, "http://peer/n", {}, 200, None),
    ({}, "http://peer/n?a=", {}, 200, [["a", ""]]),
    ({}, "http://peer/n?b=2&a=1", {}, 200, [["b", "2"], ["a", "1"]]),
    ({}, "http://peer/n", {"Content-Type": "text/plain"}, 200, BAD_HEADER),
    ({}, "http://peer/n", {"x-b": "v "}, 200, BAD_HEADER),
    ({}, "http://peer/n", {"x-b ": "1"}, 200, BAD_HEADER),
    ({}, "http://peer/n", {}, 204, (500, "reply status 204 outside the grammar")),
    ({}, "http://peer/n", {}, 1000, (500, "reply status 1000 outside the grammar")),
], ids=["value-trailing-space", "value-leading-space", "name-trailing-space", "name-colon",
        "blank-query-value", "unsorted-query", "reply-name-upper-case", "reply-value-trailing-space",
        "reply-name-trailing-space", "reply-204-with-a-body", "reply-status-four-digits"])
def test_former_split_is_answered_alike(transports, request_headers, url, reply_headers, reply_status,
                                        outcome):
    response = exchange(transports, "GET", url, request_headers, b"", reply_headers, reply_status)
    if outcome is None:
        assert response is None
    elif isinstance(outcome, tuple):
        status, message = outcome
        assert response.status == status
        assert decode_error(response.body) == ("internal-error", message)
    else:
        assert response.status == 200
        assert loads(response.body)["query"] == outcome


@pytest.mark.parametrize("url", ["http://peer", "http://peer?a=1", "http://peer/n#f", "http://peer/%zz",
                                 "http://peer/%4", "peer/n", "http:/peer/n"],
                         ids=["no-path", "query-without-path", "fragment", "bad-escape",
                              "short-escape", "no-scheme", "one-slash"])
def test_url_outside_the_grammar_is_refused_alike(transports, url):
    assert exchange(transports, "GET", url, {}, b"", {}) is None


def test_target_travels_as_written(transports):
    # percent escapes, `+` and the query's order reach the transcript untouched
    inproc = transports[0]
    url = "http://peer/a%2Fb/c?z=1+2&y=%41&x"
    response = exchange(transports, "GET", url, {}, b"", {})
    assert loads(response.body)["path"] == "/a%2Fb/c"
    assert loads(response.body)["query"] == [["z", "1 2"], ["y", "A"], ["x", ""]]
    request_frame = inproc.transcript.records()[-2]
    assert request_frame.head == b"REQ GET /a%2Fb/c?z=1+2&y=%41&x\n\n"


def test_method_is_sent_as_written(transports):
    # no longer upper-cased: a lowercase method reaches the router as it is
    response = exchange(transports, "get", "http://peer/n", {}, b"", {})
    assert loads(response.body)["method"] == "get"
