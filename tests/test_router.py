"""The table-driven `Router` against the linear matcher it replaced.

`linear_match` below is the router's earlier `_match`, kept here as the
oracle: it walks every route in the order added and returns the first whose
method and segments fit. A route's method is upper-cased when it is added,
and a request's method must then match it exactly (RFC 9110 §9.1). The differential test checks that the new router
picks the same route, with the same captured params, for generated route
tables and paths, and that a miss still goes to the fallback or to 404.
"""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from edgeqkd.transport import Router, WireRequest, WireResponse
from edgeqkd.wire import dumps, loads


def linear_match(routes, method, path):
    segments = path.strip("/").split("/")
    for route_method, pattern, fn in routes:
        if route_method != method or len(pattern) != len(segments):
            continue
        params: dict[str, str] = {}
        for expected, actual in zip(pattern, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                break
        else:
            return fn, params
    return None


def route_handler(number):
    def handler(request, **params):
        return WireResponse(200, body=dumps({"route": number, "params": params}))

    return handler


def fallback(request):
    return WireResponse(299, body=b"fallback")


def oracle(table, with_fallback, method, path):
    """What the linear router answered: (status, body) or (404, error code)."""
    routes = [(m.upper(), p.strip("/").split("/"), route_handler(i))
              for i, (m, p) in enumerate(table)]
    matched = linear_match(routes, method, path)
    if matched is not None:
        fn, params = matched
        response = fn(None, **params)
        return response.status, loads(response.body)
    if with_fallback:
        return 299, b"fallback"
    return 404, "not-found"


def answer(table, with_fallback, method, path):
    router = Router()
    for number, (route_method, pattern) in enumerate(table):
        router.add(route_method, pattern, route_handler(number))
    if with_fallback:
        router.set_fallback(fallback)
    response = router.dispatch(WireRequest(method=method, path=path))
    if response.status == 200:
        return 200, loads(response.body)
    if response.status == 404:
        return 404, loads(response.body)["code"]
    return response.status, response.body


def slashed(segments, leading, trailing):
    return ("/" if leading else "") + "/".join(segments) + ("/" if trailing else "")


patterns = st.builds(slashed, st.lists(st.sampled_from(["a", "b", "{x}", "{y}", ""]),
                                       min_size=1, max_size=4),
                     st.booleans(), st.booleans())
paths = st.builds(slashed, st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=1, max_size=4),
                  st.booleans(), st.booleans())
tables = st.lists(st.tuples(st.sampled_from(["GET", "POST", "get"]), patterns), max_size=8)


@given(table=tables, with_fallback=st.booleans(),
       method=st.sampled_from(["GET", "POST", "get", "DELETE"]), path=paths)
@example(table=[("GET", "/a/{x}"), ("GET", "/a/b")], with_fallback=False,
         method="GET", path="/a/b")  # a duplicate: the first route added wins
@example(table=[("GET", "/a/b"), ("GET", "/a/{x}")], with_fallback=False,
         method="GET", path="/a/b")
@example(table=[("GET", "/a"), ("GET", "/a")], with_fallback=False,
         method="GET", path="/a")
@example(table=[("POST", "/a/{x}")], with_fallback=False,
         method="GET", path="/a/b")  # method mismatch
@example(table=[("GET", "/a/{x}")], with_fallback=True,
         method="GET", path="/a/b/c")  # segment-count mismatch, to the fallback
@example(table=[("GET", "a/{x}/")], with_fallback=False,
         method="GET", path="//a/b//")  # leading and trailing slashes
@example(table=[("get", "/a")], with_fallback=False,
         method="get", path="/a")  # a route's method is upper-cased, a request's is not
@example(table=[("GET", "/{x}/{x}")], with_fallback=False,
         method="GET", path="/a/b")  # a repeated capture keeps the last segment
@example(table=[], with_fallback=False, method="GET", path="/")
def test_router_agrees_with_linear_match(table, with_fallback, method, path):
    assert answer(table, with_fallback, method, path) == oracle(table, with_fallback, method, path)


def test_route_added_first_wins_over_a_later_static_route():
    router = Router()
    router.add("GET", "/apps/{segment}", route_handler(0))
    router.add("GET", "/apps/healthz", route_handler(1))
    response = router.dispatch(WireRequest(method="GET", path="/apps/healthz"))
    assert loads(response.body) == {"route": 0, "params": {"segment": "healthz"}}


def test_miss_without_fallback_is_404():
    router = Router()
    router.add("POST", "/apps/{segment}/invoke", route_handler(0))
    response = router.dispatch(WireRequest(method="POST", path="/apps/x/invoke/more"))
    assert response.status == 404
    assert loads(response.body)["code"] == "not-found"
