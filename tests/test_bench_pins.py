"""The benchmark's tracer still sees the layers it pins on `tww pipeline`.

bench/tracing.py wraps library functions wherever they are bound, and
its DRIVEN table names per-layer counters that must be non-zero on
each workload.  A refactor that inlines or renames a traced function
zeroes such a counter silently; this test traces one small pipeline
run so that tier-1 fails first.  bench/ is only imported, never edited.
"""

import os

from twinwidth import cli

MICRO = "formula 3\nclause %s 1 1 2 -3\n"
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_pipeline_pins_are_driven(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    paths = []
    for name, sign in (("plus", "+"), ("minus", "-")):
        path = tmp_path / ("%s.formula" % name)
        path.write_text(MICRO % sign)
        paths.append(str(path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["pipeline"] + paths + ["--out", str(tmp_path / "g"),
                                                "--witness", str(tmp_path / "w")])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr()
    per_layer = tracer.per_layer(1)
    pinned = [m for m in tracing.DRIVEN["pipeline"] if m.endswith(".calls")]
    assert {"trigraph.contract.calls", "sequence.final_trigraph.calls",
            "sequence.verify.calls"} <= set(pinned)
    assert [m for m in pinned if not per_layer[m]] == []
