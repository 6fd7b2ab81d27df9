import pytest

from etsgd.topology import (
    Topology,
    TopologyError,
    complete,
    from_edges,
    is_connected,
    line,
    load_edge_list,
    neighbors,
    ring,
)


def test_ring_edges():
    assert ring(5).edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def test_small_rings():
    assert ring(1).edges == frozenset()
    assert ring(2).edges == frozenset({(0, 1)})
    assert ring(3).edges == complete(3).edges


def test_line_edges():
    assert line(3).edges == frozenset({(0, 1), (1, 2)})
    assert line(1).edges == frozenset()


def test_complete_edge_count():
    assert len(complete(4).edges) == 6
    assert len(complete(6).edges) == 15


def test_neighbors_sorted_and_symmetric():
    topo = ring(5)
    assert neighbors(topo, 0) == [1, 4]
    assert neighbors(topo, 3) == [2, 4]
    for u in range(5):
        for v in neighbors(topo, u):
            assert u in neighbors(topo, v)


def test_neighbors_out_of_range():
    with pytest.raises(TopologyError):
        neighbors(ring(3), 3)
    with pytest.raises(TopologyError):
        neighbors(ring(3), -1)


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        from_edges(3, [(1, 1)])
    with pytest.raises(TopologyError):
        Topology(3, frozenset({(2, 2)}))


def test_edge_out_of_range_rejected():
    with pytest.raises(TopologyError):
        Topology(3, frozenset({(0, 3)}))
    with pytest.raises(TopologyError):
        Topology(3, frozenset({(1, 0)}))  # must be stored (u, v) with u < v


def test_from_edges_normalizes():
    topo = from_edges(4, [(2, 0), (0, 2), (3, 1)])
    assert topo.edges == frozenset({(0, 2), (1, 3)})


def test_empty_topology_needs_a_node():
    with pytest.raises(TopologyError):
        Topology(0, frozenset())
    with pytest.raises(TopologyError):
        ring(0)


def test_is_connected():
    assert is_connected(ring(6))
    assert is_connected(line(4))
    assert is_connected(Topology(1, frozenset()))
    assert not is_connected(Topology(3, frozenset()))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))


def test_load_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a comment\n0 1\n\n1 2\n2 0\n")
    topo = load_edge_list(path, 3)
    assert topo.edges == ring(3).edges


def test_load_edge_list_malformed(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(TopologyError):
        load_edge_list(path, 3)
    path.write_text("0 x\n")
    with pytest.raises(TopologyError):
        load_edge_list(path, 3)


def test_load_edge_list_out_of_range_names_line(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 5\n")
    with pytest.raises(TopologyError) as exc:
        load_edge_list(path, 3)
    assert str(exc.value) == f"{path}:2: edge (1, 5) out of range for n=3"


def test_load_edge_list_self_loop_names_line(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# loop\n0 1\n1 1\n")
    with pytest.raises(TopologyError) as exc:
        load_edge_list(path, 3)
    assert str(exc.value) == f"{path}:3: self-loop on node 1"
