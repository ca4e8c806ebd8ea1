"""A tiny run through the real harness: every metric that BENCHMARK.json
names comes out, with its unit, in both modes."""

import json

from run import ROOT, measure, result_line
from workloads import Op


def _tiny_ops():
    setup = [Op("generate rand3", ("generate", "--construction", "rand3", "--alpha", "3.14159",
                                   "--radius", "3", "--seed", "1", "--out", "rand3.json"),
                ("rand3.json",))]
    timed = [
        Op("generate lines", ("generate", "--construction", "lines", "--angles", "0,1.0472,2.0944",
                              "--pitch", "0.5", "--radius", "3", "--out", "lines.json"),
           ("lines.json",)),
        Op("certify rand3", ("certify", "--in", "rand3.json", "--beta", "12.566",
                             "--out", "certify_rand3.json"), ("certify_rand3.json",)),
        Op("render rand3", ("render", "--in", "rand3.json", "--out", "rand3.svg"), ("rand3.svg",)),
        Op("injectivity dim2", ("injectivity", "--dim", "2", "--subsets", "5,9",
                                "--out", "inj.json"), ("inj.json",)),
        Op("montecarlo angles", ("montecarlo", "angles", "--trials", "1000", "--eps", "0.05",
                                 "--out", "mc.json"), ("mc.json",)),
        Op("certify missing", ("certify", "--in", "missing.json", "--beta", "12.566",
                               "--out", "never.json"), ("never.json",)),
    ]
    return setup, timed


def test_every_named_metric_appears_with_its_unit(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        workdir = tmp_path / key
        workdir.mkdir()
        res = measure(*_tiny_ops(), seconds=0, trace=trace, workdir=workdir)
        line = result_line(res, trace)
        json.dumps(line)
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in bench[key]
        }
        # one pass (two in the traced run), and only the missing input fails
        assert line["correct"] is True
        assert (line["attempted"], line["failed"]) == ((6, 1) if not trace else (12, 2))
        assert list(res.checker.failures) == ["certify missing"]
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())
    layers = line["metrics"]
    assert layers["pointset.closeness.s"]["value"] > 0
    assert layers["phaseless.kernel_nonzero"]["value"] == 1
    assert layers["sampler.mc.trials"]["value"] == 1000
