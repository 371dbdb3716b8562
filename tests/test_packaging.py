import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_imports_only_the_standard_library_and_itself():
    # the library and CLI run on a bare interpreter: no third-party import
    # in src/tgr, and no declared dependency
    foreign = []
    for path in sorted((ROOT / "src" / "tgr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "tgr" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []
    project = (ROOT / "pyproject.toml").read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert "dependencies = []" in project.splitlines()
