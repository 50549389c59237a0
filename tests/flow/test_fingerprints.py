"""Code fingerprints: stable digests, memoized once per loaded object.

Checkpoint keys (flow passes) and lab cache keys (task functions) fold
in a digest of the code's source, so a store written by one process is
resumed by another only when the digests agree byte for byte.
"""

import importlib.util
import inspect
import sys

import pytest

from repro.approx import ApproxConfig
from repro.ced.flow import ced_flow_passes
from repro.flow import Pass, pass_fingerprint
from repro.lab.cache import code_fingerprint
from repro.lab.tasks import ced_flow_task
from repro.synth.scripts import QUICK_SCRIPT

#: Digests of the shipped flow passes and of the sweep task.  A store
#: filled by an earlier build resumes only while these hold; editing a
#: pass class changes its digest on purpose (its checkpoints go stale),
#: and then this table is updated with it.
PINNED_PASSES = {
    "map-original": "02b5e62866c15694",
    "reliability": "1ba1ffa1a2fd6aa3",
    "synthesize": "3ef3a1b1168390e9",
    "map-approx": "9fe02de034da8040",
    "assemble": "a0d3c050a644d560",
    "coverage": "baf2c14643f2dff2",
    "metrics": "c88bdab85432b01d",
}
PINNED_CED_FLOW_TASK = "d8ddcc478cab3539"


def _flow_passes():
    return ced_flow_passes(ApproxConfig(seed=2008), QUICK_SCRIPT, False,
                           0.10, 4, 4, 8, 2008, None, 25.0)


def test_flow_pass_fingerprints_are_pinned():
    got = {p.name: pass_fingerprint(p) for p in _flow_passes()}
    assert got == PINNED_PASSES


def test_task_fingerprint_is_pinned():
    assert code_fingerprint(ced_flow_task) == PINNED_CED_FLOW_TASK


PROBE_SOURCE = '''
from repro.flow import Pass


class Probe(Pass):
    name = "probe"

    def run(self, ctx, record):
        return {BODY}
'''


def _load_probe(path, body: str, monkeypatch):
    path.write_text(PROBE_SOURCE.replace("{BODY}", body))
    spec = importlib.util.spec_from_file_location("fingerprint_probe",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # inspect finds a class's file through its module's registration.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.Probe


def test_redefined_pass_source_changes_the_fingerprint(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "fingerprint_probe.py"
    first = _load_probe(path, "{}", monkeypatch)
    before = pass_fingerprint(first())
    assert inspect.getsource(first) in PROBE_SOURCE.replace("{BODY}", "{}")
    second = _load_probe(path, "{'value': 42}", monkeypatch)
    # Same module and qualified name; only the source differs.
    assert pass_fingerprint(second()) != before
    # The loaded class keeps the digest of the code that runs, even
    # though its file now holds other source.
    assert pass_fingerprint(first()) == before


@pytest.fixture
def getsource_calls(monkeypatch):
    calls = []
    real = inspect.getsource

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(inspect, "getsource", counting)
    return calls


def test_pass_fingerprint_reads_source_once(getsource_calls):
    class Fresh(Pass):
        name = "fresh"

    first = pass_fingerprint(Fresh())
    assert pass_fingerprint(Fresh()) == first
    assert getsource_calls == [Fresh]


def test_code_fingerprint_reads_source_once(getsource_calls):
    def task(x):
        return x + 1

    first = code_fingerprint(task)
    assert code_fingerprint(task) == first
    assert getsource_calls == [task]
