"""Every module under `src/` uses each name it imports. An import kept only
as a name for perfbench's tracer to patch says so with `# noqa: F401`, and
the list of those imports is pinned here so it stays visible. Every
`Generator` is built in `seeds.py`, so the pipeline's draws have one place
to own their transforms."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modperf"

# (module, name): imported but not called, so that perfbench/tracer.py can
# wrap the name in that module's namespace
TRACER_ONLY = {
    ("experiment.py", "build_matrix"),
    ("experiment.py", "make_factory"),
    ("experiment.py", "matrix_hypothesis_tests"),
    ("knowledge_models.py", "fit_forest"),
}


def _imports(path: Path):
    """(bound name, line number, noqa'd) for every import in the module,
    and the set of names it reads, `__all__` entries included."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, alias.lineno, "# noqa: F401" in lines[alias.lineno - 1]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported, used


def test_src_modules_use_every_import():
    unused, exempt = [], set()
    for path in sorted(SRC.rglob("*.py")):
        imported, used = _imports(path)
        for name, line, noqa in imported:
            where = f"{path.relative_to(SRC)}:{line} {name}"
            if noqa:
                assert name not in used, f"{where} is used; drop its noqa"
                exempt.add((str(path.relative_to(SRC)), name))
            elif name not in used:
                unused.append(where)
    assert unused == []
    assert exempt == TRACER_ONLY


def test_only_seeds_builds_a_generator():
    """`default_rng` appears in `src/` only in `seeds.py` (`rng_for`)."""
    builders = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py") if "default_rng" in path.read_text()
    )
    assert builders == ["seeds.py"]
