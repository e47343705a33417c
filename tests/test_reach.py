"""The reachability tracer: it lists code no run reaches, and not code that runs."""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _body(module: str, function: str) -> set[str]:
    """``path:line`` of each statement of ``function``'s body that the tracer reports on."""
    path = ROOT / "src" / "gswin" / f"{module}.py"
    (node,) = (n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(n, ast.FunctionDef) and n.name == function)
    inside = range(node.body[0].lineno, node.end_lineno + 1)
    return {f"src/gswin/{module}.py:{s.lineno}" for s in reach.statements(path)
            if s.lineno in inside}


def test_lists_the_probe_held_partition_and_not_the_gating_unit():
    # Every run but the model-scope gradient check, which takes most of the time.
    # The package is already imported here, so module-level statements show too.
    listed = {line.split(": ", 1)[0] for line in reach.unreached(reach.RUNS[:-1])}
    partition = _body("windows", "window_partition")
    gating = _body("sgu", "multi_head_window_sgu")
    assert partition and partition <= listed
    assert gating and not gating & listed
