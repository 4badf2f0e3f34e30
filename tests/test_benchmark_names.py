"""The benchmark's tracer patches package names by string; each must exist."""

from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # Executed from its source text, so nothing is written under perfbench/.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    patches = namespace["PATCHES"]
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in patches if not hasattr(owner, attr)]
    assert not missing
