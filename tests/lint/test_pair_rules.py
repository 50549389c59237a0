"""One firing mutation per approximation-semantics (pair.*) rule."""

from repro.approx import NodeType
from repro.cubes import Cover
from repro.lint import Severity, lint_pair
from repro.network import Network

from .helpers import and2, buf, fired


def _net(cover_rows, name="pair"):
    """a, b -> f with the given SOP -> output f."""
    net = Network(name)
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], Cover.from_strings(cover_rows))
    net.add_output("f")
    return net


def _lint(original, approx, types=None, directions=None, **kwargs):
    if types is None:
        types = {"f": NodeType.ONE}
    if directions is None:
        directions = {"f": 1}
    return lint_pair(original, approx, types, directions, **kwargs)


def test_identical_pair_is_clean():
    report = _lint(_net(["11"]), _net(["11"]),
                   types={"f": NodeType.EX})
    assert report.ok
    assert [d for d in report.diagnostics if d.rule.startswith("pair.")] \
        == []


def test_io_mismatch_inputs():
    approx = _net(["11"])
    approx.add_input("c")
    diags = fired(_lint(_net(["11"]), approx), "pair.io-mismatch")
    assert len(diags) == 1
    assert "'c'" in diags[0].message


def test_io_mismatch_outputs():
    approx = _net(["11"])
    approx.outputs.append("a")
    diags = fired(_lint(_net(["11"]), approx), "pair.io-mismatch")
    assert len(diags) == 1
    assert "outputs differ" in diags[0].message


def test_direction_missing():
    diags = fired(_lint(_net(["11"]), _net(["11"]), directions={}),
                  "pair.direction-missing")
    assert len(diags) == 1
    assert diags[0].location == "po:f"


def test_direction_value():
    diags = fired(_lint(_net(["11"]), _net(["11"]),
                        directions={"f": 2}),
                  "pair.direction-value")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR


def test_untyped_node():
    diags = fired(_lint(_net(["11"]), _net(["11"]), types={}),
                  "pair.untyped-node")
    assert len(diags) == 1
    assert diags[0].location == "node:f"


def test_po_type_inconsistent_with_direction():
    diags = fired(_lint(_net(["11"]), _net(["11"]),
                        types={"f": NodeType.ZERO}),
                  "pair.po-type")
    assert len(diags) == 1
    assert "direction 1" in diags[0].message


def test_dc_read():
    # n1 is DC-typed yet the (changed) approximate f still reads it.
    original = Network("dc")
    original.add_input("a")
    original.add_input("c")
    original.add_node("n1", ["a"], buf())
    original.add_node("f", ["n1", "c"], and2())
    original.add_output("f")
    approx = original.copy()
    approx.replace_cover("f", Cover.from_strings(["10"]))
    types = {"n1": NodeType.DC, "f": NodeType.ONE}
    diags = fired(lint_pair(original, approx, types, {"f": 1}),
                  "pair.dc-read")
    assert len(diags) == 1
    assert "n1" in diags[0].message


def test_dc_read_skips_exact_nodes():
    # Same shape, but f kept its original cover (restored-exact).
    original = Network("dc")
    original.add_input("a")
    original.add_input("c")
    original.add_node("n1", ["a"], buf())
    original.add_node("f", ["n1", "c"], and2())
    original.add_output("f")
    types = {"n1": NodeType.DC, "f": NodeType.ONE}
    report = lint_pair(original, original.copy(), types, {"f": 1})
    assert fired(report, "pair.dc-read") == []


def test_ex_changed():
    diags = fired(_lint(_net(["11"]), _net(["1-"]),
                        types={"f": NodeType.EX}),
                  "pair.ex-changed")
    assert len(diags) == 1
    assert diags[0].location == "node:f"


def test_direction_local_one_grew():
    # Type-ONE nodes may only shrink their on-set; "1-" grows "11".
    diags = fired(_lint(_net(["11"]), _net(["1-"])),
                  "pair.direction-local")
    assert len(diags) == 1
    assert "apx => orig" in diags[0].message


def test_direction_local_zero_shrank():
    diags = fired(_lint(_net(["1-"]), _net(["11"]),
                        types={"f": NodeType.ZERO},
                        directions={"f": 0}),
                  "pair.direction-local")
    assert len(diags) == 1
    assert "orig => apx" in diags[0].message


def test_direction_local_accepts_shrinking():
    report = _lint(_net(["1-", "-1"]), _net(["11"]))
    assert fired(report, "pair.direction-local") == []


def test_cube_unjustified():
    # f = XNOR(a, n1) with n1 typed ZERO.  n1 is fully observable at f
    # (toggling it always flips XNOR), so Eq. 1 leaves no feasible
    # subspace; the kept cube "11" reads n1 without justification.
    original = Network("eq1")
    original.add_input("a")
    original.add_input("b")
    original.add_node("n1", ["b"], buf())
    original.add_node("f", ["a", "n1"],
                      Cover.from_strings(["11", "00"]))
    original.add_output("f")
    approx = original.copy()
    approx.replace_cover("f", Cover.from_strings(["11"]))
    types = {"n1": NodeType.ZERO, "f": NodeType.ONE}
    diags = fired(lint_pair(original, approx, types, {"f": 1}),
                  "pair.cube-unjustified")
    assert len(diags) == 1
    assert "11" in diags[0].message
    assert diags[0].location == "node:f/cube:0"


def test_cube_unjustified_accepts_conforming_selection():
    # Dropping the n1-reading cube is the exact selection: clean.
    original = Network("eq1")
    original.add_input("a")
    original.add_input("b")
    original.add_node("n1", ["b"], buf())
    original.add_node("f", ["a", "n1"],
                      Cover.from_strings(["1-", "01"]))
    original.add_output("f")
    approx = original.copy()
    approx.replace_cover("f", Cover.from_strings(["1-"]))
    types = {"n1": NodeType.ZERO, "f": NodeType.ONE}
    report = lint_pair(original, approx, types, {"f": 1})
    assert fired(report, "pair.cube-unjustified") == []


def test_po_implication_holds_quietly():
    report = _lint(_net(["1-", "-1"]), _net(["11"]))
    assert fired(report, "pair.po-implication") == []


def _refuted_pairs():
    """(original, approx, types, directions, condition, witness) of
    pairs whose claimed implication fails."""
    # approx = OR over-approximates original = AND, yet direction 1
    # claims G => F.
    yield (_net(["11"]), _net(["1-", "-1"]), None, None, "G => F",
           {"a": True, "b": False})
    # original is the tautology, approx collapsed to constant 0, yet
    # direction 0 claims F => G: every assignment is a counterexample.
    collapsed = Network("pair")
    collapsed.add_input("a")
    collapsed.add_input("b")
    collapsed.add_node("f", [], Cover.zero(0))
    collapsed.add_output("f")
    yield (_net(["--"]), collapsed, {"f": NodeType.ZERO}, {"f": 0},
           "F => G", {"a": False, "b": False})


def test_po_implication_refuted_error_when_proof_claimed():
    for original, approx, types, directions, condition, witness \
            in _refuted_pairs():
        diags = fired(_lint(original, approx, types, directions,
                            claimed_method="bdd"),
                      "pair.po-implication")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR
        assert condition in diags[0].message
        assert diags[0].data["witness"] == witness


def test_po_implication_refuted_warning_for_sim_claims():
    diags = fired(_lint(_net(["11"]), _net(["1-", "-1"]),
                        claimed_method="sim"),
                  "pair.po-implication")
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING


def test_po_implication_refuted_warning_when_admittedly_incorrect():
    for original, approx, types, directions, _, witness \
            in _refuted_pairs():
        diags = fired(_lint(original, approx, types, directions,
                            claimed_method="bdd",
                            claimed_correct={"f": False}),
                      "pair.po-implication")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING
        assert diags[0].data["witness"] == witness


def test_certificates_emitted_for_proved_implications():
    report = _lint(_net(["1-", "-1"]), _net(["11"]),
                   certificates=True)
    assert len(report.certificates) == 1
    cert = report.certificates[0]
    assert cert["po"] == "f"
    assert cert["direction"] == 1
    assert cert["status"] == "proved"
