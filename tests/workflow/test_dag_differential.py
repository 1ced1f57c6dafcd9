"""The workflow DAG's own algorithms against networkx, order for order.

:class:`~repro.workflow.model.Workflow` keeps plain adjacency dicts and
runs its own Kahn passes.  Every order it returns is compared here with
what networkx gives on the graph built the way ``Workflow`` used to
build it (nodes in task order, edges in input-file order).
"""

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.genomes import make_1000genomes
from repro.workflow.model import File, Task, Workflow
from repro.workflow.swarp import make_swarp
from repro.workflow.synthetic import make_random_dag


def reference_graph(workflow: Workflow) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(workflow.tasks)
    for task in workflow.tasks.values():
        for f in task.inputs:
            producer = workflow.producer_of(f.name)
            if producer is not None and producer.name != task.name:
                graph.add_edge(producer.name, task.name)
    return graph


def names(tasks):
    return [t.name for t in tasks]


def assert_matches_networkx(workflow: Workflow) -> None:
    graph = reference_graph(workflow)

    assert names(workflow.topological_order()) == list(
        nx.lexicographical_topological_sort(graph)
    )

    # levels(): depth over nx.topological_sort, as the networkx-backed
    # model computed it, so the order inside each level is pinned too.
    depth: dict[str, int] = {}
    for name in nx.topological_sort(graph):
        depth[name] = 1 + max((depth[p] for p in graph.predecessors(name)), default=-1)
    expected_levels = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for name, d in depth.items():
        expected_levels[d].append(name)
    assert [names(level) for level in workflow.levels()] == expected_levels

    best: dict[str, float] = {}
    for name in nx.topological_sort(graph):
        best[name] = workflow.tasks[name].flops + max(
            (best[p] for p in graph.predecessors(name)), default=0.0
        )
    assert workflow.critical_path_flops() == max(best.values(), default=0.0)

    for name in workflow.tasks:
        assert names(workflow.parents(name)) == list(graph.predecessors(name))
        assert names(workflow.children(name)) == list(graph.successors(name))
    assert names(workflow.entry_tasks()) == [
        n for n in graph if graph.in_degree(n) == 0
    ]
    assert names(workflow.exit_tasks()) == [
        n for n in graph if graph.out_degree(n) == 0
    ]

    # The lazily built view carries the same nodes and edges, in order.
    view = workflow.graph
    assert list(view.nodes) == list(graph.nodes)
    assert list(view.edges) == list(graph.edges)
    for name in graph:
        assert list(view.predecessors(name)) == list(graph.predecessors(name))


@st.composite
def shuffled_random_dags(draw):
    """A ``make_random_dag`` workflow re-declared in a drawn task order,
    with each task's inputs in a drawn order, so declaration order and
    name order both vary independently of the DAG."""
    base = make_random_dag(
        draw(st.integers(min_value=1, max_value=30)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        edge_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    tasks = [
        dataclasses.replace(task, inputs=tuple(draw(st.permutations(task.inputs))))
        for task in draw(st.permutations(list(base)))
    ]
    return Workflow(base.name, tasks)


@given(shuffled_random_dags())
@settings(max_examples=60, deadline=None)
def test_random_dags_match_networkx(workflow):
    assert_matches_networkx(workflow)


@given(
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40
    ),
    st.permutations(range(12)),
)
@settings(max_examples=60, deadline=None)
def test_multi_file_edges_match_networkx(pairs, declared):
    """Several files between one producer and consumer are one edge,
    placed where its first file is declared."""
    inputs: dict[int, list[File]] = {i: [] for i in range(12)}
    outputs: dict[int, list[File]] = {i: [] for i in range(12)}
    for k, (a, b) in enumerate(pairs):
        i, j = min(a, b), max(a, b)
        if i == j:
            continue
        f = File(f"f{k}", 1.0)
        outputs[i].append(f)
        inputs[j].append(f)
    tasks = [
        Task(f"n{i}", flops=float(i + 1), inputs=tuple(inputs[i]), outputs=tuple(outputs[i]))
        for i in declared
    ]
    assert_matches_networkx(Workflow("multi", tasks))


@pytest.mark.parametrize(
    "workflow",
    [make_swarp(n_pipelines=4), make_1000genomes()],
    ids=["swarp", "genomes"],
)
def test_stock_workflows_match_networkx(workflow):
    assert_matches_networkx(workflow)


def test_empty_workflow_matches_networkx():
    assert_matches_networkx(Workflow("empty", []))


@pytest.mark.parametrize("length", [2, 3, 5])
def test_cycle_is_named(length):
    """A cycle of ``length`` tasks hanging off an acyclic prefix raises
    ``ValueError`` listing exactly that cycle's edges."""
    files = [File(f"f{i}", 1) for i in range(length)]
    ring = [
        Task(f"c{i}", flops=1, inputs=(files[i - 1],), outputs=(files[i],))
        for i in range(length)
    ]
    lead = Task("a", flops=1, outputs=(File("seed", 1),))
    tail = Task("z", flops=1, inputs=(files[0], File("seed", 1)))
    with pytest.raises(ValueError, match="workflow contains a cycle") as info:
        Workflow("cyclic", [lead, *ring, tail])
    message = str(info.value)
    edges = {(f"c{i - 1 if i else length - 1}", f"c{i}") for i in range(length)}
    for u, v in edges:
        assert repr((u, v)) in message
    assert "'a'" not in message and "'z'" not in message
