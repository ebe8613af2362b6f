import itertools
import json

import pytest
from hypothesis import given, strategies as st

from sparsity_ef.errors import EnumerationGuardError
from sparsity_ef.graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    InstanceError,
    SparsityParams,
    induced_edges,
    load_graph,
    make_graph,
    validate_instance,
)

from conftest import complete_graph


def test_load_k3_canonical_order():
    g = load_graph('{"n":3,"edges":[[1,2],[2,0],[0,1]]}')
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.edge_index == {(0, 1): 0, (0, 2): 1, (1, 2): 2}


def test_load_edgeless():
    g = load_graph('{"n":2,"edges":[]}')
    assert g.n == 2 and g.edges == ()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"n":3,"edges":[[0,0]]}', "self-loop"),
        ('{"n":3,"edges":[[0,1],[1,0]]}', "duplicate"),
        ('{"n":3,"edges":[[0,3]]}', "outside"),
        ('{"n":3,"edges":[[0]]}', "pair"),
        ('{"n":3,"edges":[5]}', "edge 5 is not a 2-element pair"),
        ('{"n":3,"edges":[null]}', "edge None is not a 2-element pair"),
        ('{"n":"3","edges":[]}', "integer"),
        ("{not json", "malformed JSON"),
        # the decoder recurses once per nested array, and its RecursionError is bad input too
        pytest.param("[" * 100_000, "malformed JSON: maximum recursion depth", id="nested-array"),
        pytest.param('{"n":3,"edges":' + "[" * 100_000, "malformed JSON: maximum recursion depth", id="nested-edges"),
        ("[1,2]", "object"),
        ('{"edges":[]}', '"n"'),
    ],
)
def test_load_errors_are_distinct(text, fragment):
    with pytest.raises(GraphError, match=fragment):
        load_graph(text)


def test_direct_construction_rejects_non_canonical():
    with pytest.raises(GraphError):
        Graph(3, ((1, 0),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 2), (0, 1)))


def test_induced_edges_examples():
    k3 = complete_graph(3)
    assert induced_edges(k3, {0, 1}) == {0}
    assert induced_edges(k3, {0}) == frozenset()
    k4 = complete_graph(4)
    triangle = induced_edges(k4, {0, 1, 2})
    assert {k4.edges[i] for i in triangle} == {(0, 1), (0, 2), (1, 2)}


def test_induced_edges_rejects_bad_vertex():
    with pytest.raises(GraphError):
        induced_edges(complete_graph(3), {0, 5})


def test_validate_instance():
    validate_instance(complete_graph(3), SparsityParams(1, 1))
    with pytest.raises(InstanceError, match="n < 2"):
        validate_instance(Graph(1, ()), SparsityParams(1, 1))
    with pytest.raises(InstanceError, match="outside"):
        validate_instance(complete_graph(3), SparsityParams(1, 2))
    with pytest.raises(InstanceError, match="outside"):
        validate_instance(complete_graph(3), SparsityParams(0, 0))
    with pytest.raises(InstanceError, match="outside"):
        validate_instance(complete_graph(3), SparsityParams(2, -1))
    # no bound on k: every count is a Python int
    validate_instance(Graph(2, ()), SparsityParams(2**62, 0))
    validate_instance(Graph(7, ()), SparsityParams(2**100, 2**101 - 1))


def test_vertex_guard_fires_above_max_vertices():
    validate_instance(Graph(MAX_VERTICES, ()), SparsityParams(1, 1))
    with pytest.raises(EnumerationGuardError, match="vertex guard"):
        validate_instance(Graph(MAX_VERTICES + 1, ()), SparsityParams(1, 1))


@st.composite
def graphs_st(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return make_graph(n, edges)


@given(graphs_st())
def test_json_round_trip(g):
    assert load_graph(json.dumps({"n": g.n, "edges": g.edges})) == g


@given(graphs_st(), st.data())
def test_induced_edges_monotone_and_total(g, data):
    everything = induced_edges(g, range(g.n))
    assert everything == frozenset(range(g.edge_count))
    x = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n)))
    y = x | frozenset(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n)))
    assert induced_edges(g, x) <= induced_edges(g, y)


def test_index_of():
    k3 = complete_graph(3)
    assert k3.index_of(2, 0) == 1
    with pytest.raises(GraphError):
        k3.index_of(0, 0)
