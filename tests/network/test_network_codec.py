"""Pickling a :class:`Network`: the graph survives, the mutation log not.

A network pickles as flat per-node tuples.  The round trip keeps
names, node and cube order, covers and ``version``; the restored
network's mutation log starts at that version, so ``changed_signals``
for any earlier version answers ``None`` (rebuild).
"""

import copyreg
import io
import pickle

from repro.bench import tiny_benchmark
from repro.cubes import Cover
from repro.network import Network
from repro.network.network import MUTATION_LOG_CAP


def _churned() -> Network:
    """tiny with a cover edit and a node removal on top of its build."""
    net = tiny_benchmark()
    name = next(iter(net.nodes))
    net.replace_cover(name, net.nodes[name].cover.complement())
    net.add_node("spare", [net.inputs[0]], Cover.from_strings(["0"]))
    net.remove_node("spare")
    net.topological_order()
    return net


def _legacy_dumps(obj) -> bytes:
    """Pickle ``obj`` with every Network in the default ``__dict__``
    format (less the input-set memo, which that format predates): what
    ``object.__reduce_ex__(net, 2)`` gave before ``__reduce__``."""
    class Legacy(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is Network:
                state = {k: v for k, v in vars(value).items()
                         if k != "_pi_index"}
                return copyreg.__newobj__, (Network,), state, None, None
            return NotImplemented

    buf = io.BytesIO()
    Legacy(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def assert_same_graph(a: Network, b: Network) -> None:
    assert (a.name, a.inputs, a.outputs) == (b.name, b.inputs, b.outputs)
    assert list(a.nodes) == list(b.nodes)
    for name, node in a.nodes.items():
        other = b.nodes[name]
        assert other.name == name
        assert other.fanins == node.fanins
        assert other.cover.n == node.cover.n
        assert [(c.n, c.ones, c.zeros) for c in other.cover.cubes] == \
            [(c.n, c.ones, c.zeros) for c in node.cover.cubes]


def test_round_trip_keeps_graph_order_and_version():
    net = _churned()
    back = pickle.loads(pickle.dumps(net))
    assert_same_graph(net, back)
    assert back.version == net.version
    assert back.topological_order() == net.topological_order()
    assert back.evaluate_outputs(dict.fromkeys(net.inputs, True)) == \
        net.evaluate_outputs(dict.fromkeys(net.inputs, True))


def test_restored_log_starts_at_the_restored_version():
    net = _churned()
    back = pickle.loads(pickle.dumps(net))
    for since in range(net.version):
        assert back.changed_signals(since) is None
    assert back.changed_signals(back.version) == frozenset()
    # New mutations are logged as usual from there on.
    mark = back.version
    name = next(iter(back.nodes))
    back.replace_cover(name, back.nodes[name].cover.complement())
    assert back.changed_signals(mark) == frozenset({name})


def test_pickle_carries_no_mutation_log():
    net = tiny_benchmark()
    for _ in range(MUTATION_LOG_CAP):
        name = next(iter(net.nodes))
        net.replace_cover(name, net.nodes[name].cover.complement())
    compact = pickle.dumps(net)
    assert len(compact) < len(_legacy_dumps(net)) / 2
    assert pickle.loads(compact)._mutation_log == []


def test_restored_network_is_independent_and_mutable():
    net = tiny_benchmark()
    back = pickle.loads(pickle.dumps(net))
    back.add_input("extra")
    assert back.is_input("extra") and not net.is_input("extra")
    back.add_node("x", ["extra"], Cover.from_strings(["1"]))
    assert "x" not in net.nodes


def test_plain_slot_dict_pickles_still_load():
    net = _churned()
    old = pickle.loads(_legacy_dumps(net))
    assert_same_graph(net, old)
    assert old.version == net.version
    assert old.changed_signals(0) == net.changed_signals(0)
    assert len(old._mutation_log) == len(net._mutation_log)
    old.add_input("late")
    assert old.is_input("late")
