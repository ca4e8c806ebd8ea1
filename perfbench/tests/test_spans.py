import fockpr.cli
import fockpr.lattice
import fockpr.pointset
import fockpr.sampler
import fockpr.suites
import pytest

from spans import Span, Tracer, call_counts, install, self_times


def test_self_time_of_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [3, 6] (overlapping: union 5),
    # a holds c [2, 3]; root also holds 1.5 s of tallied calls, c 0.25 s
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),
        Span(3, "c", 2.0, 3.0, 1),
    ]
    tallies = [[0, "t", 30, 1.5], [3, "t", 5, 0.25]]
    got = self_times(spans, tallies)
    assert got == pytest.approx({"root": 10 - 5 - 1.5, "a": 3 - 1, "b": 3, "c": 1 - 0.25, "t": 1.75})
    assert call_counts(spans, tallies) == {"root": 1, "a": 1, "b": 1, "c": 1, "t": 35}


def test_child_reaching_outside_its_parent_is_clipped():
    spans = [Span(0, "p", 0.0, 2.0, None), Span(1, "q", 1.5, 3.0, 0), Span(2, "q", 1.0, 1.2, 0)]
    assert self_times(spans, [])["p"] == pytest.approx(2.0 - 0.5 - 0.2)


def test_tracer_records_parents_and_tallies():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.open("outer")            # t=0
    tr.open("inner")            # t=1
    tr.tally("leaf", 0.5)
    tr.close()                  # t=2
    tr.close()                  # t=3
    assert tr.spans == [Span(1, "inner", 1.0, 2.0, 0), Span(0, "outer", 0.0, 3.0, None)]
    assert tr.tallies == {(1, "leaf"): [1, 0.5]}


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path, monkeypatch):
    originals = (fockpr.sampler.random_triple, fockpr.lattice.window_arrays,
                 fockpr.pointset.IndexedPointSet.add,
                 vars(fockpr.pointset.IndexedPointSet)["from_json"])
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert fockpr.cli.random_triple is fockpr.sampler.random_triple is fockpr.suites.random_triple
        assert fockpr.cli._LATTICE_CONSTRUCTIONS["rand3"] is fockpr.sampler.random_triple
        assert fockpr.sampler.window_arrays is fockpr.lattice.window_arrays
        monkeypatch.chdir(tmp_path)
        rc = fockpr.cli.main(["generate", "--construction", "rand3", "--alpha", "3.14159",
                              "--radius", "2", "--seed", "3", "--out", "s.json"])
        tracer.finish()
    finally:
        uninstall()
    assert rc == 0
    names = {s.name for s in tracer.spans}
    assert {"sampler.construct", "lattice.window_arrays", "rng.keyed_disk",
            "pointset.to_json", "jsonio.dumps"} <= names
    calls = call_counts(tracer.spans, [[p, n, c, s] for (p, n), (c, s) in tracer.tallies.items()])
    entries = tracer.counts["sampler.entries"]
    assert calls["pointset.add"] == entries == 3 * tracer.counts["lattice.window_points"]
    assert tracer.counts["jsonio.bytes_out"] == (tmp_path / "s.json").stat().st_size - 1
    assert (fockpr.sampler.random_triple, fockpr.lattice.window_arrays,
            fockpr.pointset.IndexedPointSet.add,
            vars(fockpr.pointset.IndexedPointSet)["from_json"]) == originals
    assert fockpr.cli.random_triple is originals[0]
