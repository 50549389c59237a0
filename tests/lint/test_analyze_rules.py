"""One firing mutation per analysis-backed lint rule.

These rules consume repro.analyze fixpoint solutions, so each test
builds the smallest network whose *dataflow facts* (not just syntax)
trigger the finding: functions that are constant only after
propagation, cubes killed by SDCs, cones masked at every output.
"""

from repro.cubes import Cover, Cube
from repro.lint import Severity, lint_network
from repro.network import Network

from .helpers import and2, buf, chain, fired


def _const_net(value: int) -> Network:
    """a -> k = const(value); f = AND(a, k) -> output f."""
    net = Network("constnet")
    net.add_input("a")
    if value:
        net.add_node("k", [], Cover(0, [Cube(0, 0, 0)]))
    else:
        net.add_node("k", [], Cover.zero(0))
    net.add_node("f", ["a", "k"], and2())
    net.add_output("f")
    return net


def test_const_node():
    # f = AND(a, 0) is constant 0 but still reads two signals.
    report = lint_network(_const_net(0))
    diags = fired(report, "net.const-node")
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert diags[0].location == "node:f"
    assert diags[0].data == {"constant": 0}
    # The explicit constant node itself is intentional: not flagged.
    assert all("'k'" not in d.message for d in diags)


def test_const_node_quiet_on_clean_network():
    assert fired(lint_network(chain()), "net.const-node") == []


def test_const_redundant():
    # Cube 1 of f requires k=0, but k is proven constant 1: SDC.
    net = Network("sdc")
    net.add_input("a")
    net.add_node("k", [], Cover(0, [Cube(0, 0, 0)]))
    net.add_node("f", ["a", "k"],
                 Cover.from_strings(["11", "10"]))
    net.add_output("f")
    diags = fired(lint_network(net), "net.const-redundant")
    assert len(diags) == 1
    assert diags[0].location == "node:f/cube:1"
    assert "never fire" in diags[0].message


def test_structural_dup():
    # g1 and g2 root identical AND(a, b) cones.
    net = Network("dup")
    net.add_input("a")
    net.add_input("b")
    net.add_node("g1", ["a", "b"], and2())
    net.add_node("g2", ["a", "b"], and2())
    net.add_node("f", ["g1", "g2"],
                 Cover.from_strings(["1-", "-1"]))
    net.add_output("f")
    diags = fired(lint_network(net), "net.structural-dup")
    assert len(diags) == 1
    assert diags[0].data == {"nodes": ["g1", "g2"]}
    assert diags[0].location == "node:g1"


def test_dead_cone():
    # d feeds f, but f = AND(d, k) with k constant 0 masks it at the
    # only output: d is PO-reaching yet provably unobservable.
    net = Network("dead")
    net.add_input("a")
    net.add_node("k", [], Cover.zero(0))
    net.add_node("d", ["a"], buf())
    net.add_node("f", ["d", "k"], and2())
    net.add_output("f")
    diags = fired(lint_network(net), "net.dead-cone")
    # The constant node k is itself unobservable too; d is the point.
    assert "node:d" in [d.location for d in diags]
    assert diags[0].severity is Severity.WARNING


def test_unread_fanin():
    # f declares b but no cube constrains it.
    net = Network("unread")
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], Cover.from_strings(["1-"]))
    net.add_output("f")
    diags = fired(lint_network(net), "net.unread-fanin")
    assert len(diags) == 1
    assert "'b'" in diags[0].message
    assert diags[0].data == {"positions": [1]}


def test_const_po_propagated_is_warning():
    # The PO driver is constant only through propagation: suspicious.
    diags = fired(lint_network(_const_net(0)), "net.const-po")
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert diags[0].location == "po:f"


def test_const_po_explicit_is_info():
    net = Network("constpo")
    net.add_input("a")
    net.add_node("f", [], Cover.zero(0))
    net.add_output("f")
    diags = fired(lint_network(net), "net.const-po")
    assert len(diags) == 1
    assert diags[0].severity is Severity.INFO


def test_analyze_rules_skip_ill_formed_networks():
    # Undefined fanins / cycles belong to the structural rules; the
    # dataflow rules must not crash on them.
    from repro.network import Node
    net = chain()
    net.nodes["n2"] = Node("n2", ["ghost"], buf())
    report = lint_network(net)
    assert fired(report, "net.undefined-fanin")
    assert fired(report, "net.const-node") == []
