"""Tests of the benchmark's own machinery: generators, layer counts, tracer.

    python3 -m pytest -q perfbench
"""

import importlib

import pytest

import run as bench
from tracer import TARGETS, Tracer
from workloads import WORKLOADS, corpus, interleave, straightline

bench.import_mcfl()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_reproduces_identical_sources(workload):
    generate = WORKLOADS[workload]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_corpus_seed_changes_order_only():
    assert sorted(corpus(1)) == sorted(corpus(2))


def _small_programs():
    ports = [p for p in corpus(0) if p[0].startswith("port-")]
    return straightline(1, n=8) + interleave(1)[:1] + ports


def _traced_counts():
    run = bench.Run("corpus", _small_programs())
    run.one_pass(traced=True)
    assert not run.problems and run.failed == 0
    return {name: run.layers[0][name] for name in bench.COUNTS}


def test_layer_counts_repeat_across_traced_runs():
    first = _traced_counts()
    assert first == _traced_counts()
    assert first["localizer.diagnose.calls"] > 0
    assert first["verifier.input.states"] > 0


def test_tracer_restores_every_wrapped_name():
    modules = {name: importlib.import_module(name) for name in TARGETS}
    originals = {(m, n): getattr(modules[m], n)
                 for m, names in TARGETS.items() for n in names}
    with pytest.raises(RuntimeError):
        with Tracer():
            for (m, n), fn in originals.items():
                assert getattr(modules[m], n) is not fn
            raise RuntimeError("leave the block early")
    for (m, n), fn in originals.items():
        assert getattr(modules[m], n) is fn


def test_setup_samples_spread_over_the_run():
    setup = bench.SetupSamples("straightline", 1, count=4)
    setup.take_until(0.5)
    assert len(setup.samples) == 2
    setup.take_until(1.7)
    assert len(setup.samples) == 4
    assert all(0 < s < 10 for s in setup.samples)
