import ast
import sys
from pathlib import Path

import tsdlink

SRC = Path(tsdlink.__file__).parent


def test_library_imports_only_the_standard_library():
    # every import of a tsdlink module is package-relative or a standard-library module
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
